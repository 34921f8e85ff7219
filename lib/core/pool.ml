type report = {
  domain : int;
  chunks : int;
  busy_seconds : float;
  steal_seconds : float;
  died : bool;
}

exception Died

let run ?(stop = fun () -> false) ~domains ~chunk ~setup task n =
  let chunk = max 1 chunk in
  let width = max 1 (min domains ((n + chunk - 1) / chunk)) in
  let next = Atomic.make 0 in
  let failed = Atomic.make None in
  let worker d () =
    let t0 = Unix.gettimeofday () in
    let chunks = ref 0 and steal = ref 0.0 in
    let died =
      match setup d with
      | exception _ -> true
      | state ->
        let rec claim () =
          if Atomic.get failed <> None || stop () then false
          else begin
            let t = Unix.gettimeofday () in
            let lo = Atomic.fetch_and_add next chunk in
            steal := !steal +. (Unix.gettimeofday () -. t);
            if lo >= n then false
            else
              match task state lo (min n (lo + chunk)) with
              | () ->
                incr chunks;
                claim ()
              | exception Died -> true
              | exception exn ->
                ignore (Atomic.compare_and_set failed None (Some exn));
                false
          end
        in
        claim ()
    in
    {
      domain = d;
      chunks = !chunks;
      busy_seconds = Unix.gettimeofday () -. t0;
      steal_seconds = !steal;
      died;
    }
  in
  let spawned = List.init (width - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  let mine = worker 0 () in
  let reports = mine :: List.map Domain.join spawned in
  Option.iter raise (Atomic.get failed);
  reports

let map ~domains f n =
  let results = Array.make n None in
  ignore
    (run ~domains ~chunk:1 ~setup:ignore
       (fun () lo hi ->
         for i = lo to hi - 1 do
           results.(i) <- Some (f i)
         done)
       n);
  Array.map Option.get results
