let front_end_default = 16

let large_cache_default = 4

let fe_config ?(front_end = front_end_default) () = Hoard_config.make ~front_end ()

let san_config ?(quarantine = 32) () = Hoard_config.make ~sanitize:true ~quarantine ()

let gl_config ?(front_end = front_end_default) ?(large_cache = large_cache_default) () =
  Hoard_config.make ~front_end ~large_cache ~global:Hoard_config.Lockfree ()

let hoard_fe ?front_end () =
  let config = fe_config ?front_end () in
  let front_end = config.Hoard_config.front_end in
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-fe";
    description =
      Printf.sprintf "hoard with the lock-free front end (%d cached blocks per class per thread)" front_end;
  }

let hoard_san ?quarantine () =
  let config = san_config ?quarantine () in
  let quarantine = config.Hoard_config.quarantine in
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-san";
    description =
      Printf.sprintf "hoard with the heap sanitizer (poison-on-free, %d-block quarantine)" quarantine;
  }

let hoard_gl ?front_end ?large_cache () =
  let config = gl_config ?front_end ?large_cache () in
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-gl";
    description =
      Printf.sprintf
        "hoard-fe on the lock-free global heap (CAS-published fullness index, no heap-0 lock on any transfer) with \
         deferred remote-free lists and the large-object cache (cap %d per bucket)"
        config.Hoard_config.large_cache;
  }

let all () =
  [
    Serial_alloc.factory ();
    Concurrent_single.factory ();
    Pure_private.factory ();
    Private_ownership.factory ();
    Private_threshold.factory ();
    Hoard.factory ();
    hoard_fe ();
    hoard_gl ();
  ]

(* Checking configurations: resolvable by [find] but excluded from [all]
   (sweeps and comparison tables run the eight measurement allocators). *)
let extras () = [ hoard_san () ]

let labels () = List.map (fun f -> f.Alloc_intf.label) (all ())

let find label = List.find_opt (fun f -> f.Alloc_intf.label = label) (all () @ extras ())

(* The hoard-family labels and the configs their factories register
   with — [None] for the non-hoard comparison allocators, which have no
   knobs to override. *)
let base_config = function
  | "hoard" -> Some Hoard_config.default
  | "hoard-fe" -> Some (fe_config ())
  | "hoard-san" -> Some (san_config ())
  | "hoard-gl" -> Some (gl_config ())
  | _ -> None

let with_overrides f label =
  match (find label, base_config label) with
  | Some fac, Some cfg ->
    let config = f cfg in
    Some { fac with Alloc_intf.instantiate = (Hoard.factory ~config ()).Alloc_intf.instantiate }
  | _, _ -> None

let help () =
  String.concat "\n"
    (List.map
       (fun f -> Printf.sprintf "  %-18s %s" f.Alloc_intf.label f.Alloc_intf.description)
       (all () @ extras ()))
