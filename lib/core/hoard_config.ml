(* How the global heap (heap 0) is structured: [Locked] is the classic
   Dlist fullness groups behind the heap-0 lock; [Lockfree] replaces them
   with the CAS-published fullness index (Global_index) so the transfer
   path never takes the heap-0 lock. *)
type global_mode =
  | Locked
  | Lockfree

let global_mode_name = function
  | Locked -> "locked"
  | Lockfree -> "lockfree"

let global_mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "locked" | "lock" -> Some Locked
  | "lockfree" | "lock-free" | "lock_free" -> Some Lockfree
  | _ -> None

type t = {
  sb_size : int;
  empty_fraction : float;
  slack : int;
  nheaps : int option;
  release_threshold : int;
  vmem_backend : Vmem_backend.kind;
  front_end : int;
  remote_queue_cap : int;
  large_cache : int;
  global : global_mode;
  mutant : string;
}

let known_mutants =
  [
    "skip-owner-recheck";
    "emptiness-off-by-one";
    "deferred-lost-node";
    "large-cache-no-aba";
    "orphan-lost-superblock";
    "global-no-aba";
    "global-skip-revalidate";
  ]

let default =
  {
    sb_size = 8192;
    empty_fraction = 0.25;
    slack = 4;
    nheaps = None;
    release_threshold = 4;
    vmem_backend = Vmem_backend.Exact;
    front_end = 0;
    remote_queue_cap = 256;
    large_cache = 0;
    global = Locked;
    mutant = "";
  }

(* ------------------------------------------------------------------ *)
(* The knob registry: one record per tunable, carrying its name, doc
   line, parser, range check and printers. [validate], [pp], [set] and
   the shared [--set knob=value] CLI option in hoard_bench/hoard_trace/
   hoard_check are all driven from this list, so a new knob is one
   registry entry — no per-binary flag parser or record-literal edits. *)

type knob = {
  k_name : string;
  k_doc : string;
  k_get : t -> string; (* render current value *)
  k_parse : t -> string -> t; (* parse + store; Invalid_argument on junk *)
  k_check : t -> string option; (* range check; error message when bad *)
}

let bad name fmt = Printf.ksprintf (fun m -> invalid_arg (Printf.sprintf "Hoard_config: %s: %s" name m)) fmt

let parse_int name s =
  match int_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> bad name "expected an integer, got %S" s

let parse_float name s =
  match float_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> bad name "expected a number, got %S" s

let int_knob name doc ~get ~store ~check =
  {
    k_name = name;
    k_doc = doc;
    k_get = (fun t -> string_of_int (get t));
    k_parse = (fun t s -> store t (parse_int name s));
    k_check = (fun t -> check (get t));
  }

let non_negative name v = if v < 0 then Some (Printf.sprintf "%s must be non-negative" name) else None

let knobs =
  [
    {
      k_name = "sb-size";
      k_doc = "S: superblock size in bytes; power of two >= 1024 (paper: 8192).";
      k_get = (fun t -> string_of_int t.sb_size);
      k_parse = (fun t s -> { t with sb_size = parse_int "sb-size" s });
      k_check =
        (fun t ->
          if t.sb_size < 1024 || t.sb_size land (t.sb_size - 1) <> 0 then
            Some "sb-size must be a power of two >= 1024"
          else None);
    };
    {
      k_name = "empty-fraction";
      k_doc = "f: emptiness-invariant fraction in (0, 1) (paper: 0.25).";
      k_get = (fun t -> Printf.sprintf "%g" t.empty_fraction);
      k_parse = (fun t s -> { t with empty_fraction = parse_float "empty-fraction" s });
      k_check =
        (fun t ->
          if t.empty_fraction > 0.0 && t.empty_fraction < 1.0 then None
          else Some "empty-fraction must lie in (0, 1)");
    };
    int_knob "slack" "K: superblocks of slack a heap may hold regardless of f."
      ~get:(fun t -> t.slack)
      ~store:(fun t v -> { t with slack = v })
      ~check:(non_negative "slack");
    {
      k_name = "nheaps";
      k_doc = "Heap count: 'auto' (or 'per-proc'), one per processor picked by processor; or n heaps picked by tid hash.";
      k_get =
        (fun t ->
          match t.nheaps with
          | None -> "auto"
          | Some n -> string_of_int n);
      k_parse =
        (fun t s ->
          match String.lowercase_ascii (String.trim s) with
          | "auto" | "per-proc" | "per_proc" -> { t with nheaps = None }
          | s -> { t with nheaps = Some (parse_int "nheaps" s) });
      k_check =
        (fun t ->
          match t.nheaps with
          | Some n when n < 1 -> Some "nheaps must be >= 1 (or auto)"
          | _ -> None);
    };
    int_knob "release-threshold"
      "Empty superblocks the global heap retains before returning the rest to the OS; max_int never releases."
      ~get:(fun t -> t.release_threshold)
      ~store:(fun t v -> { t with release_threshold = v })
      ~check:(non_negative "release-threshold");
    {
      k_name = "vmem";
      k_doc = "Address-space reuse policy: exact, first-fit or buddy.";
      k_get = (fun t -> Vmem_backend.kind_name t.vmem_backend);
      k_parse =
        (fun t s ->
          match Vmem_backend.kind_of_string (String.trim s) with
          | Some k -> { t with vmem_backend = k }
          | None -> bad "vmem" "unknown backend %S (exact, first-fit, buddy)" s);
      k_check = (fun _ -> None);
    };
    int_knob "front-end" "K: per-thread cache capacity per size class (2K for 8 B blocks); 0 disables, else >= 2."
      ~get:(fun t -> t.front_end)
      ~store:(fun t v -> { t with front_end = v })
      ~check:(fun v ->
        if v < 0 then Some "front-end must be non-negative"
        else if v > 0 && v < 2 then Some "front-end must be 0 or >= 2"
        else None);
    int_knob "remote-queue-cap"
      "Capacity of each heap's bounded remote-free queue, and the most own-heap evictions its deferred list holds."
      ~get:(fun t -> t.remote_queue_cap)
      ~store:(fun t v -> { t with remote_queue_cap = v })
      ~check:(fun v -> if v < 1 then Some "remote-queue-cap must be >= 1" else None);
    int_knob "large-cache" "Per-bucket capacity of the MPSC large-object cache; 0 disables."
      ~get:(fun t -> t.large_cache)
      ~store:(fun t v -> { t with large_cache = v })
      ~check:(non_negative "large-cache");
    {
      k_name = "global";
      k_doc = "Global-heap structure: locked (Dlist groups) or lockfree (CAS fullness index).";
      k_get = (fun t -> global_mode_name t.global);
      k_parse =
        (fun t s ->
          match global_mode_of_string s with
          | Some m -> { t with global = m }
          | None -> bad "global" "unknown mode %S (locked, lockfree)" s);
      k_check = (fun _ -> None);
    };
  ]

let normalize_name s =
  String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii (String.trim s))

let find_knob name =
  let name = normalize_name name in
  List.find_opt (fun k -> k.k_name = name) knobs

let knob_names () = List.map (fun k -> k.k_name) knobs

let knob_doc () =
  String.concat "\n" (List.map (fun k -> Printf.sprintf "  %-18s %s" k.k_name k.k_doc) knobs)

let validate t =
  List.iter
    (fun k ->
      match k.k_check t with
      | Some msg -> invalid_arg ("Hoard_config: " ^ msg)
      | None -> ())
    knobs;
  if t.mutant <> "" && not (List.mem t.mutant known_mutants) then
    invalid_arg
      (Printf.sprintf "Hoard_config: unknown mutant %S (known: %s)" t.mutant
         (String.concat ", " known_mutants))

let set t spec =
  match String.index_opt spec '=' with
  | None -> bad "set" "expected knob=value, got %S (knobs: %s)" spec (String.concat ", " (knob_names ()))
  | Some i ->
    let name = String.sub spec 0 i in
    let value = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match find_knob name with
     | None ->
       bad "set" "unknown knob %S (knobs: %s)" (String.trim name) (String.concat ", " (knob_names ()))
     | Some k ->
       let t = k.k_parse t value in
       (match k.k_check t with
        | Some msg -> invalid_arg ("Hoard_config: " ^ msg)
        | None -> t))

let set_all t specs = List.fold_left set t specs

let max_small t = t.sb_size / 2

(* The paper's blowup envelope, 2U/(1-f) + O(P). The factor 2/(1-f)
   over peak usable U is the superblock worst case: at most half a
   superblock is lost to header + carving waste (the S/2 size class),
   and a heap may be up to f empty. The O(P) term, from the
   configuration: per heap, K superblocks of slack, one being installed
   (the invariant is only enforced on frees), one in transit to the
   global heap, and one pinned per size class by the trim's protect-last
   rule; the global heap's retained empties; front-end caches and remote
   queues park whole blocks; the quarantine holds back frees; threads
   keep one allocation in flight. All counted at superblock granularity
   where a superblock could be pinned, so the envelope is generous but
   still O(U + P).

   P here is the PEAK LIVE thread population (Sim.peak_live_threads),
   not the total ever spawned: a retiring thread's exit path flushes its
   caches and hands its heap's superblocks to the global heap, so under
   churn the threads that have come and gone must not widen the
   envelope. Holding the bound to peak-live P is precisely what tests
   that orphaned-superblock adoption works. *)
let blowup_envelope ?(quarantine = 0) t ~nprocs ~peak_live_threads ~peak_live_bytes =
  let s = t.sb_size in
  let p = peak_live_threads in
  let heaps = (match t.nheaps with Some n -> n | None -> nprocs) + 1 in
  let per_heap = (t.slack + 4) * s * heaps in
  (* The release threshold clamped so that even [max_int] (never
     release) cannot overflow the sum. *)
  let retained = (min t.release_threshold (max_int / 16 / s) + 1) * s in
  let in_flight = p * s in
  let fe = if t.front_end > 0 then (p + heaps) * s else 0 in
  let quarantine = quarantine * max_small t in
  (* Deferred lists are unbounded, but a block only floats between a
     producer's eviction (at most a cache's worth per flush) and the
     owner's next fill — the same per-thread granularity as the caches,
     counted once more per heap since reclaims happen heap by heap. *)
  let deferred = if t.global = Lockfree && t.front_end > 0 then (p + heaps) * s else 0 in
  (* The large cache keeps up to cap regions per bucket mapped (1..16
     pages each, of Vmem.page_size = 4 KiB). *)
  let large_cache = t.large_cache * (16 * 17 / 2) * 4096 in
  int_of_float (2.0 *. float_of_int peak_live_bytes /. (1.0 -. t.empty_fraction))
  + per_heap + retained + in_flight + fe + quarantine + deferred + large_cache

(* Registry-driven printer: the core shape parameters always print (in
   registry order), every other knob only when it differs from the
   default — so new knobs show up in [inspect] output automatically. *)
let always_shown =
  [ "sb-size"; "empty-fraction"; "slack"; "nheaps"; "front-end" ]

let pp fmt t =
  let first = ref true in
  List.iter
    (fun k ->
      let cur = k.k_get t in
      if List.mem k.k_name always_shown || cur <> k.k_get default then begin
        if not !first then Format.pp_print_string fmt " ";
        first := false;
        Format.fprintf fmt "%s=%s" k.k_name cur
      end)
    knobs;
  if t.mutant <> "" then Format.fprintf fmt " MUTANT=%s" t.mutant
