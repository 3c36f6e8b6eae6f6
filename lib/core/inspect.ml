(* Inspection of synthesized code: find routines by page name and
   disassemble them with annotations — the window into what the
   synthesizer actually emitted. *)

open Quamachine

let find k name = List.find_opt (fun p -> p.Kernel.sp_name = name) (Kernel.pages k)

(* Routines whose page name contains [substr]. *)
let grep k substr =
  List.filter
    (fun { Kernel.sp_name = n; _ } ->
      let ls = String.lowercase_ascii substr and ln = String.lowercase_ascii n in
      let rec contains i =
        if i + String.length ls > String.length ln then false
        else if String.sub ln i (String.length ls) = ls then true
        else contains (i + 1)
      in
      contains 0)
    (Kernel.pages k)

(* The probe points bound at [addr], as "<layer> <name>". *)
let probe_notes k addr =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun (off, (name, act)) ->
          if p.Kernel.sp_entry + off <> addr then None
          else
            Some
              ((match act with Kernel.Trace _ -> "ktrace " | Kernel.Span _ -> "kspan ")
              ^ name))
        p.Kernel.sp_probes)
    (Kernel.pages k)

let disassemble_routine k ppf name =
  match find k name with
  | None -> Fmt.pf ppf "no such routine: %s@." name
  | Some { Kernel.sp_name = n; sp_entry = entry; sp_len = len; _ } ->
    Fmt.pf ppf "%s (%d instructions at %d):@.%s:@." n len entry n;
    (* probe points emit no instructions: list them as comments *)
    for a = entry to entry + len - 1 do
      List.iter (Fmt.pf ppf "         ; probe %s@.") (probe_notes k a);
      Fmt.pf ppf "  %5d  %a@." a Insn.pp (Machine.read_code k.Kernel.machine a)
    done;
    Fmt.pf ppf "straight-line cycles from entry: %d@."
      (Monitor.static_cycles k.Kernel.machine ~from:entry)

let pp_registry k ppf () =
  List.iter
    (fun p -> Fmt.pf ppf "%6d %4d  %s@." p.Kernel.sp_entry p.Kernel.sp_len p.Kernel.sp_name)
    (Kernel.pages k)

let pp_threads k ppf () =
  Hashtbl.iter
    (fun tid (t : Kernel.tte) ->
      Fmt.pf ppf
        "thread %d: state=%s tte=%d map=%d quantum=%dus fp=%b sw_out=%d sw_in=%d@."
        tid
        (match t.Kernel.state with
        | Kernel.Ready -> "ready"
        | Kernel.Blocked -> "blocked"
        | Kernel.Stopped -> "stopped"
        | Kernel.Zombie -> "zombie")
        t.Kernel.base t.Kernel.map_id t.Kernel.quantum_us t.Kernel.uses_fp
        t.Kernel.sw_out t.Kernel.sw_in)
    k.Kernel.threads
