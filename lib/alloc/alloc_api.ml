(* Generic implementations of the extended allocation API, expressed over
   the raw malloc/free/usable_size closures (not the record, so a builder
   can assemble a record without tying the knot). *)

let generic_calloc (pf : Platform.t) ~malloc ~count ~size =
  if count <= 0 || size <= 0 then invalid_arg "Alloc_api.calloc: count and size must be positive";
  if count > max_int / size then invalid_arg "Alloc_api.calloc: size overflow";
  let total = count * size in
  let addr = malloc total in
  pf.Platform.write ~addr ~len:total;
  addr

let generic_realloc (pf : Platform.t) ~malloc ~free ~usable_size ~addr ~size =
  if size <= 0 then invalid_arg "Alloc_api.realloc: size must be positive";
  let old_usable = usable_size addr in
  if size <= old_usable then addr
  else begin
    let fresh = malloc size in
    let copied = min old_usable size in
    pf.Platform.read ~addr ~len:copied;
    pf.Platform.write ~addr:fresh ~len:copied;
    free addr;
    fresh
  end

let generic_aligned_alloc (pf : Platform.t) ~malloc ~large_threshold ~align ~size =
  if size <= 0 then invalid_arg "Alloc_api.aligned_alloc: size must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Alloc_api.aligned_alloc: align must be a positive power of two";
  if align <= 8 then malloc size
  else if align > pf.Platform.page_size then
    invalid_arg "Alloc_api.aligned_alloc: alignment beyond the page size is not supported"
  else
    (* Force the page-aligned large-object path; pages satisfy any
       alignment up to their own size. *)
    malloc (max size (large_threshold + 1))

let make ~pf ~name ~owner ~large_threshold ~malloc ~free ~usable_size ~stats ~check ?malloc_batch
    ?free_batch ?flush ?thread_exit ?realloc () =
  let malloc_batch =
    match malloc_batch with
    | Some f -> f
    | None -> fun n size -> Array.init n (fun _ -> malloc size)
  in
  let free_batch =
    match free_batch with
    | Some f -> f
    | None -> fun addrs -> Array.iter free addrs
  in
  let flush =
    match flush with
    | Some f -> f
    | None -> fun () -> ()
  in
  (* Allocators without per-thread heap assignments have nothing to adopt
     on exit: flushing the front end is the whole obligation. *)
  let thread_exit =
    match thread_exit with
    | Some f -> f
    | None -> flush
  in
  let realloc =
    match realloc with
    | Some f -> f
    | None -> fun ~addr ~size -> generic_realloc pf ~malloc ~free ~usable_size ~addr ~size
  in
  {
    Alloc_intf.name;
    owner;
    large_threshold;
    malloc;
    free;
    usable_size;
    stats;
    check;
    malloc_batch;
    free_batch;
    flush;
    thread_exit;
    realloc;
    calloc = (fun ~count ~size -> generic_calloc pf ~malloc ~count ~size);
    aligned_alloc = (fun ~align ~size -> generic_aligned_alloc pf ~malloc ~large_threshold ~align ~size);
  }
