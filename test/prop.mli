(** QCheck properties as Alcotest cases, on one fixed seed.

    Every property draws its cases from a fresh generator seeded with
    {!seed}, so a property that fails on some input fails on every run
    instead of flickering between runs.  Setting [QCHECK_SEED] to an
    integer explores another seed. *)

(** [QCHECK_SEED] when it holds an integer, otherwise 20_261_018. *)
val seed : int

(** [QCheck_alcotest.to_alcotest] with [~rand] seeded from {!seed}. *)
val to_alcotest : QCheck2.Test.t -> unit Alcotest.test_case
