(* The one [--set knob=value] option shared by hoard_bench, hoard_trace
   and hoard_check: textual overrides over the Hoard_config knob
   registry. Every configuration a command runs is resolved here, so a
   bad knob or value is the same usage error (exit 124, the registry's
   message) everywhere. A new knob becomes settable everywhere by adding
   its registry entry, with no edits to any CLI. *)

open Cmdliner

let set_opt =
  Arg.(
    value
    & opt_all string []
    & info [ "set" ] ~docv:"KNOB=VALUE"
        ~doc:
          (Printf.sprintf
             "Override one allocator knob (repeatable; applied left to right). Knobs: %s. Values: \
              ints, floats, true/false, and $(b,auto) for nheaps."
             (String.concat ", " (Hoard_config.knob_names ()))))

(* A command-specific short flag for one knob (sweep's [-f], [-k],
   [--sbsize]): the raw text becomes a [knob=value] override, so parsing
   and range checks stay the registry's. *)
let knob_flag ~knob names ~doc =
  Term.(
    const (function None -> [] | Some v -> [ knob ^ "=" ^ v ])
    $ Arg.(value & opt (some string) None & info names ~docv:"VALUE" ~doc))

(* Integer flags with a lower bound. An out-of-range or malformed value
   is a Cmdliner parse error, so the command prints its usage and exits
   124 instead of raising (or silently running with a nonsense value). *)
let int_at_least ~what lo s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= lo -> Ok n
  | _ -> Error (`Msg (Printf.sprintf "bad %s %S (expected an integer >= %d)" what s lo))

let int_conv ~what lo = Arg.conv (int_at_least ~what lo, Format.pp_print_int)

let positive = int_conv ~what:"value" 1

let non_negative = int_conv ~what:"value" 0

let parse_nprocs = int_at_least ~what:"processor count" 1

let nprocs = int_conv ~what:"processor count" 1

let procs =
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> Result.bind (parse_nprocs p) (fun n -> go (n :: acc) rest)
    in
    go [] (String.split_on_char ',' s)
  in
  let print fmt ns = Format.pp_print_string fmt (String.concat "," (List.map string_of_int ns)) in
  Arg.conv (parse, print)

(* Fold the overrides over [base]; a bad knob or value comes back as
   the registry's message plus the knob list. *)
let resolve base overrides =
  match Hoard_config.set_all base overrides with
  | cfg -> Ok cfg
  | exception Invalid_argument msg ->
    Error (Printf.sprintf "%s\n\nknown knobs:\n%s" msg (Hoard_config.knob_doc ()))

let config base overrides = Term.term_result' ~usage:true Term.(const (resolve base) $ overrides)

let apply base overrides =
  match resolve base overrides with
  | Ok cfg -> cfg
  | Error msg ->
    Printf.eprintf "%s: %s\n" Filename.(remove_extension (basename Sys.executable_name)) msg;
    exit Cmd.Exit.cli_error

(* File I/O for the CLIs' reports, traces and specs. A bad path is an
   [Error "path: reason"] the caller prints before exiting 1, never an
   uncaught [Sys_error]. *)
let io_error path msg = Error (if String.starts_with ~prefix:(path ^ ": ") msg then msg else path ^ ": " ^ msg)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> io_error path msg

let write_file path contents =
  match Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents) with
  | () -> Ok ()
  | exception Sys_error msg -> io_error path msg

let or_exit = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 1

(* Appending writes nothing, so an existing file keeps its contents
   until the run's [write_file] replaces them. *)
let writable path =
  match Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append ] 0o666 path ignore with
  | () -> Ok ()
  | exception Sys_error msg -> io_error path msg

let check_writable paths = List.iter (Option.iter (fun path -> or_exit (writable path))) paths
