module Incremental = Anafault.Detect.Incremental

(* The faulty response is sampled on the nominal grid and folded
   through one detector, stopping at its final verdict.  A non-finite
   faulty sample anywhere is an error, checked before the fold. *)
let analyse ~tolerance ~signal ~nominal ~faulty =
  if Array.length (Sim.Waveform.times faulty) = 0 then Error "faulty waveform is empty"
  else begin
    let times = Sim.Waveform.times nominal in
    let nom = Sim.Waveform.samples nominal signal in
    let flt = Array.map (Sim.Waveform.value_at faulty signal) times in
    match Incremental.create ~tolerance ~times ~nom with
    | Error msg -> Error msg
    | Ok _ when not (Array.for_all Float.is_finite flt) ->
      Error "faulty response contains non-finite samples"
    | Ok det ->
      let rec fold i =
        match Incremental.feed det flt.(i) with
        | Incremental.Pending -> fold (i + 1)
        | Incremental.Detected j -> Ok (Some times.(j))
        | Incremental.Clear -> Ok None
      in
      fold 0
  end

let first_detection ~tolerance ~signal ~nominal ~faulty =
  match analyse ~tolerance ~signal ~nominal ~faulty with
  | Ok t -> t
  | Error msg -> invalid_arg ("Detect: " ^ msg)
