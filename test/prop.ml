let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 20_261_018

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
