let fe_config = { Hoard_config.default with front_end = 16 }

let gl_config = { fe_config with Hoard_config.large_cache = 4; global = Lockfree }

let hoard_fe_of config =
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-fe";
    description =
      Printf.sprintf "hoard with the lock-free front end (%d cached blocks per class per thread)"
        config.Hoard_config.front_end;
  }

let hoard_fe () = hoard_fe_of fe_config

let hoard_san_of config =
  let quarantine = Sanitizer.default_quarantine in
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-san";
    description = Printf.sprintf "hoard with the heap sanitizer (poison-on-free, %d-block quarantine)" quarantine;
    instantiate = (fun pf -> Sanitizer.allocator (Sanitizer.create ~quarantine pf (Hoard.create ~config pf)));
  }

let hoard_san () = hoard_san_of Hoard_config.default

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

let hoard_gl () = hoard_gl_of gl_config

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
    ("hoard-fe", fe_config, hoard_fe_of);
    ("hoard-san", Hoard_config.default, fun config -> hoard_san_of config);
    ("hoard-gl", gl_config, hoard_gl_of);
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
