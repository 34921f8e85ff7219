(* BENCH_<workload>.json records and their trace files. *)

module J = Obs.Json

let floats xs = J.List (List.map (fun x -> J.Float x) xs)

let metric_json (m : Workload.metric) =
  let q1, q3 = Stats.quartiles m.samples in
  J.Obj
    ([ ("value", J.Float m.value); ("unit", J.String m.unit) ]
    @
    if m.samples = [] then []
    else
      [
        ("n", J.Int (List.length m.samples));
        ("median", J.Float (Stats.median m.samples));
        ("q1", J.Float q1);
        ("q3", J.Float q3);
        ("samples", floats m.samples);
      ])

let metrics ms = J.Obj (List.map (fun (m : Workload.metric) -> (m.name, metric_json m)) ms)

let env ~commit =
  J.Obj
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("commit", J.String commit);
      ("domains", J.Int 1);
    ]

let path ~dir workload = Filename.concat dir ("BENCH_" ^ workload ^ ".json")

let write ~dir ~workload ~seed ~seconds ~size ~commit (o : Workload.outcome) e2e =
  Util.mkdir_p dir;
  let kinds = List.sort_uniq String.compare (List.map fst o.latencies) in
  let record =
    J.Obj
      [
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("size", J.String size);
        ("env", env ~commit);
        ("correct", J.Bool (o.failed = 0));
        ("attempted", J.Int o.attempted);
        ("failed", J.Int o.failed);
        ("end_to_end", metrics e2e);
        ("per_layer", metrics o.layers);
        ( "latencies_s",
          J.Obj
            (List.map
               (fun k ->
                 ( k,
                   floats
                     (List.filter_map
                        (fun (k', t) -> if k = k' then Some t else None)
                        o.latencies) ))
               kinds) );
      ]
  in
  Util.write_file (path ~dir workload) (J.to_string record ^ "\n");
  Out_channel.with_open_bin
    (Filename.concat dir ("BENCH_" ^ workload ^ ".trace.jsonl"))
    (fun oc -> Obs.Jsonl.write oc o.events)

(* {1 Reading records back} *)

type t = {
  workload : string;
  failed : int;
  e2e : (string * (string * float)) list;  (** name -> unit, value *)
  layers : (string * (string * float)) list;
}

let num = function J.Float f -> Some f | J.Int n -> Some (float_of_int n) | _ -> None

let field name = function J.Obj fs -> List.assoc_opt name fs | _ -> None

let read file =
  match J.of_string (Util.read_file file) with
  | Error e -> Util.fail "%s: %s" file e
  | Ok j ->
    let block name =
      match field name j with
      | Some (J.Obj fs) ->
        List.filter_map
          (fun (k, v) ->
            match (Option.bind (field "value" v) num, field "unit" v) with
            | Some x, Some (J.String u) -> Some (k, (u, x))
            | _ -> None)
          fs
      | _ -> []
    in
    let str name = match field name j with Some (J.String s) -> s | _ -> "" in
    let int name =
      match Option.bind (field name j) num with Some x -> int_of_float x | None -> 0
    in
    {
      workload = str "workload";
      failed = int "failed";
      e2e = block "end_to_end";
      layers = block "per_layer";
    }
