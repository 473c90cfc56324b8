let front_end_default = 16

let large_cache_default = 4

let fe_config ?(front_end = front_end_default) () = Hoard_config.make ~front_end ()

let gl_config ?(front_end = front_end_default) ?(large_cache = large_cache_default) () =
  Hoard_config.make ~front_end ~large_cache ~global:Hoard_config.Lockfree ()

let hoard_fe_of config =
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-fe";
    description =
      Printf.sprintf "hoard with the lock-free front end (%d cached blocks per class per thread)"
        config.Hoard_config.front_end;
  }

let hoard_fe ?front_end () = hoard_fe_of (fe_config ?front_end ())

let hoard_san_of ?(quarantine = Sanitizer.default_quarantine) config =
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-san";
    description = Printf.sprintf "hoard with the heap sanitizer (poison-on-free, %d-block quarantine)" quarantine;
    instantiate = (fun pf -> Sanitizer.allocator (Sanitizer.create ~quarantine pf (Hoard.create ~config pf)));
  }

let hoard_san ?quarantine () = hoard_san_of ?quarantine Hoard_config.default

let hoard_gl_of config =
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-gl";
    description =
      Printf.sprintf
        "hoard-fe on the lock-free global heap (CAS-published fullness index, no heap-0 lock on any transfer) with \
         deferred remote-free lists and the large-object cache (cap %d per bucket)"
        config.Hoard_config.large_cache;
  }

let hoard_gl ?front_end ?large_cache () = hoard_gl_of (gl_config ?front_end ?large_cache ())

let all () =
  [
    Locked_heaps.serial ();
    Locked_heaps.concurrent_single ();
    Private_heaps.pure_private ();
    Locked_heaps.private_ownership ();
    Private_heaps.private_threshold ();
    Hoard.factory ();
    hoard_fe ();
    hoard_gl ();
  ]

(* Checking configurations: resolvable by [find] but excluded from [all]
   (sweeps and comparison tables run the eight measurement allocators). *)
let extras () = [ hoard_san () ]

let labels () = List.map (fun f -> f.Alloc_intf.label) (all ())

let find label = List.find_opt (fun f -> f.Alloc_intf.label = label) (all () @ extras ())

(* The hoard family: each label's registered config and its builder, so
   an override rebuilds the whole composition (the sanitizer included),
   not just the core. *)
let hoard_family =
  [
    ("hoard", Hoard_config.default, fun config -> Hoard.factory ~config ());
    ("hoard-fe", fe_config (), hoard_fe_of);
    ("hoard-san", Hoard_config.default, fun config -> hoard_san_of config);
    ("hoard-gl", gl_config (), hoard_gl_of);
  ]

let base_config label = List.find_map (fun (l, cfg, _) -> if l = label then Some cfg else None) hoard_family

let with_overrides f label =
  match (find label, List.find_opt (fun (l, _, _) -> l = label) hoard_family) with
  | Some fac, Some (_, cfg, build) -> Some { (build (f cfg)) with Alloc_intf.description = fac.Alloc_intf.description }
  | _, _ -> None

let help () =
  String.concat "\n"
    (List.map
       (fun f -> Printf.sprintf "  %-18s %s" f.Alloc_intf.label f.Alloc_intf.description)
       (all () @ extras ()))
