type t = {
  name : string;
  owner : int;
  large_threshold : int;
  malloc : int -> int;
  free : int -> unit;
  usable_size : int -> int;
  stats : unit -> Alloc_stats.snapshot;
  check : unit -> unit;
  malloc_batch : int -> int -> int array;
  free_batch : int array -> unit;
  flush : unit -> unit;
  thread_exit : unit -> unit;
  realloc : addr:int -> size:int -> int;
  calloc : count:int -> size:int -> int;
  aligned_alloc : align:int -> size:int -> int;
}

type factory = {
  label : string;
  description : string;
  instantiate : Platform.t -> t;
  vmem_backend : Vmem_backend.kind;
}

let owner_counter = Atomic.make 1

let next_owner () = Atomic.fetch_and_add owner_counter 1
