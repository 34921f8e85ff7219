(* The typed per-fault result vocabulary shared by the serial loop, the
   parallel scheduler and the campaign journal.  Lives below Simulate so
   Journal can read and write results without depending on the loop. *)

type failure =
  | Dc_no_convergence of string
  | Tran_step_underflow of string
  | Singular_matrix of string
  | Bad_injection of string
  | Budget_exceeded of string
  | Cancelled of string
  | Crashed of string

let failure_kind = function
  | Dc_no_convergence _ -> "dc_no_convergence"
  | Tran_step_underflow _ -> "tran_step_underflow"
  | Singular_matrix _ -> "singular_matrix"
  | Bad_injection _ -> "bad_injection"
  | Budget_exceeded _ -> "budget_exceeded"
  | Cancelled _ -> "cancelled"
  | Crashed _ -> "crashed"

let failure_detail = function
  | Dc_no_convergence d
  | Tran_step_underflow d
  | Singular_matrix d
  | Bad_injection d
  | Budget_exceeded d
  | Cancelled d
  | Crashed d ->
    d

(* The one text rendering of a failure.  Everything that prints a
   failure - the CLI table, the CSV, the wire protocol's error events -
   goes through this pair, so the journal, the wire and the reports can
   never disagree on the same typed failure. *)
let failure_to_string f =
  let d = failure_detail f in
  if d = "" then failure_kind f else failure_kind f ^ ": " ^ d

let failure_of_kind kind detail =
  match kind with
  | "dc_no_convergence" -> Ok (Dc_no_convergence detail)
  | "tran_step_underflow" -> Ok (Tran_step_underflow detail)
  | "singular_matrix" -> Ok (Singular_matrix detail)
  | "bad_injection" -> Ok (Bad_injection detail)
  | "budget_exceeded" -> Ok (Budget_exceeded detail)
  | "cancelled" -> Ok (Cancelled detail)
  | "crashed" -> Ok (Crashed detail)
  | other -> Error ("unknown failure kind " ^ other)

let failure_of_string s =
  match String.index_opt s ':' with
  | None -> failure_of_kind (String.trim s) ""
  | Some i ->
    let kind = String.trim (String.sub s 0 i) in
    let detail =
      let d = String.sub s (i + 1) (String.length s - i - 1) in
      if String.length d > 0 && d.[0] = ' ' then
        String.sub d 1 (String.length d - 1)
      else d
    in
    failure_of_kind kind detail

let of_engine_error (err : Sim.Engine.error) detail =
  match err with
  | Sim.Engine.Dc_no_convergence -> Dc_no_convergence detail
  | Sim.Engine.Tran_step_underflow -> Tran_step_underflow detail
  | Sim.Engine.Singular_matrix -> Singular_matrix detail
  | Sim.Engine.Budget_exceeded -> Budget_exceeded detail
  | Sim.Engine.Cancelled -> Cancelled detail

(* Only kernel convergence failures are worth re-attempting: a bad
   injection stays bad, a budget trip was deliberate, a cancellation
   must stop the ladder dead, and a crash is a bug report, not a
   tolerance problem. *)
let retryable = function
  | Dc_no_convergence _ | Tran_step_underflow _ | Singular_matrix _ -> true
  | Bad_injection _ | Budget_exceeded _ | Cancelled _ | Crashed _ -> false

(* A failure that may have corrupted or bypassed shared session state;
   the campaign loops quarantine the session (rebuild it) before the
   next fault.  Bad injections raise before any device is patched.  A
   cancellation aborts mid-solve, leaving device state half-updated,
   so it poisons too - moot in practice, since a cancelled campaign
   stops simulating. *)
let poisons_session = function
  | Bad_injection _ -> false
  | Dc_no_convergence _ | Tran_step_underflow _ | Singular_matrix _
  | Budget_exceeded _ | Cancelled _ | Crashed _ ->
    true

type strategy =
  | Baseline
  | Swap_model
  | Cut_tstep of float
  | Raise_gmin of float
  | Relax_reltol of float

let strategy_to_string = function
  | Baseline -> "baseline"
  | Swap_model -> "swap-model"
  | Cut_tstep f -> Printf.sprintf "cut-tstep=%.17g" f
  | Raise_gmin f -> Printf.sprintf "raise-gmin=%.17g" f
  | Relax_reltol f -> Printf.sprintf "relax-reltol=%.17g" f

let strategy_of_string s =
  let name, arg =
    match String.index_opt s '=' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let with_arg default k =
    match (String.contains s '=', arg) with
    | false, _ -> Ok (k default)
    | true, Some f -> Ok (k f)
    | true, None -> Error ("bad numeric argument in strategy " ^ s)
  in
  match name with
  | "baseline" -> Ok Baseline
  | "swap-model" -> Ok Swap_model
  | "cut-tstep" -> with_arg 0.1 (fun f -> Cut_tstep f)
  | "raise-gmin" -> with_arg 1e3 (fun f -> Raise_gmin f)
  | "relax-reltol" -> with_arg 10.0 (fun f -> Relax_reltol f)
  | other -> Error ("unknown retry strategy " ^ other)

(* One rung of the retry ladder as it was actually run: [None] means the
   attempt succeeded (it is the winning strategy). *)
type attempt = { strategy : strategy; failure : failure option }

type outcome = Detected of float | Undetected | Sim_failed of failure

type fault_result = {
  fault : Faults.Fault.t;
  outcome : outcome;
  attempts : attempt list;
  stats : Sim.Engine.stats;
  cpu_seconds : float;
}

let outcome_to_string = function
  | Detected t -> Printf.sprintf "detected at %.4g s" t
  | Undetected -> "undetected"
  | Sim_failed f -> "sim failed: " ^ failure_to_string f

(* --- JSONL codec (journal lines) -------------------------------------- *)

module J = Obs.Json

let failure_to_json f =
  J.Obj [ ("kind", J.String (failure_kind f)); ("detail", J.String (failure_detail f)) ]

let ( let* ) = Result.bind

let failure_of_json json =
  let* fields = J.obj_fields json in
  let* kind = J.require fields "kind" J.as_str in
  let* detail = J.get fields "detail" ~default:"" J.as_str in
  failure_of_kind kind detail

let attempt_to_json a =
  J.Obj
    (("strategy", J.String (strategy_to_string a.strategy))
    ::
    (match a.failure with
    | None -> []
    | Some f -> [ ("failure", failure_to_json f) ]))

let attempt_of_json json =
  let* fields = J.obj_fields json in
  let* strategy = J.require fields "strategy" J.as_str in
  let* strategy = strategy_of_string strategy in
  let* failure = J.get fields "failure" ~default:None (J.as_opt failure_of_json) in
  Ok { strategy; failure }

(* A number that survives the codec bit-for-bit: Json.Float prints with
   %.17g, which round-trips IEEE doubles exactly. *)
let result_to_json ~index r =
  let open J in
  let outcome_fields =
    match r.outcome with
    | Detected t -> [ ("outcome", String "detected"); ("t_detect", Float t) ]
    | Undetected -> [ ("outcome", String "undetected") ]
    | Sim_failed f -> [ ("outcome", String "failed"); ("failure", failure_to_json f) ]
  in
  Obj
    ([ ("index", Int index); ("id", String r.fault.Faults.Fault.id) ]
    @ outcome_fields
    @ [
        ("attempts", List (List.map attempt_to_json r.attempts));
        ( "stats",
          Obj
            [
              ("newton_iterations", Int r.stats.Sim.Engine.newton_iterations);
              ("accepted_steps", Int r.stats.Sim.Engine.accepted_steps);
              ("rejected_steps", Int r.stats.Sim.Engine.rejected_steps);
            ] );
        ("cpu_seconds", Float r.cpu_seconds);
      ])

let stats_of_json json =
  let* s = J.obj_fields json in
  let* newton_iterations = J.require s "newton_iterations" J.as_int in
  let* accepted_steps = J.require s "accepted_steps" J.as_int in
  let* rejected_steps = J.require s "rejected_steps" J.as_int in
  Ok { Sim.Engine.newton_iterations; accepted_steps; rejected_steps }

let no_stats =
  { Sim.Engine.newton_iterations = 0; accepted_steps = 0; rejected_steps = 0 }

let result_of_json ~faults json =
  let* fields = J.obj_fields json in
  let* index = J.require fields "index" J.as_int in
  if index < 0 || index >= Array.length faults then
    Error (Printf.sprintf "fault index %d out of range" index)
  else begin
    let fault = faults.(index) in
    let* id = J.require fields "id" J.as_str in
    if not (String.equal id fault.Faults.Fault.id) then
      Error
        (Printf.sprintf "journal id %s does not match fault %s at index %d" id
           fault.Faults.Fault.id index)
    else
      let* outcome =
        let* tag = J.require fields "outcome" J.as_str in
        match tag with
        | "detected" ->
          let* t = J.require fields "t_detect" J.as_float in
          Ok (Detected t)
        | "undetected" -> Ok Undetected
        | "failed" ->
          let* f = J.require fields "failure" failure_of_json in
          Ok (Sim_failed f)
        | other -> Error ("unknown outcome " ^ other)
      in
      let* attempts = J.get fields "attempts" ~default:[] (J.list_of attempt_of_json) in
      let* stats = J.get fields "stats" ~default:no_stats stats_of_json in
      let* cpu_seconds = J.require fields "cpu_seconds" J.as_float in
      Ok (index, { fault; outcome; attempts; stats; cpu_seconds })
  end
