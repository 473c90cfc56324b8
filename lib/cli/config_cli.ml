(* The one [--set knob=value] option shared by hoard_bench, hoard_trace
   and hoard_check: textual overrides over the Hoard_config knob
   registry, applied after (and on top of) each command's individual
   flags — which stay as aliases for the knobs they predate. A new knob
   becomes settable everywhere by adding its registry entry, with no
   edits to any CLI. *)

open Cmdliner

let set_opt =
  Arg.(
    value
    & opt_all string []
    & info [ "set" ] ~docv:"KNOB=VALUE"
        ~doc:
          (Printf.sprintf
             "Override one allocator knob (repeatable; applied on top of the individual flags, left \
              to right). Knobs: %s. Values: ints, floats, true/false, and $(b,auto) for nheaps."
             (String.concat ", " (Hoard_config.knob_names ()))))

(* Processor counts are integers >= 1. A malformed one is a Cmdliner
   parse error, so the command prints its usage and exits non-zero
   instead of raising. *)
let parse_nprocs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (`Msg (Printf.sprintf "bad processor count %S (expected an integer >= 1)" s))

let nprocs = Arg.conv (parse_nprocs, Format.pp_print_int)

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

(* Fold the overrides over [base], turning a bad knob or value into a
   usage error that lists the registry instead of a raw exception. *)
let apply base overrides =
  match Hoard_config.set_all base overrides with
  | cfg -> cfg
  | exception Invalid_argument msg ->
    Printf.eprintf "--set: %s\n\nknown knobs:\n%s\n" msg (Hoard_config.knob_doc ());
    exit 1
