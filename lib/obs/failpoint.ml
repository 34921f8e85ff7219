(* Deterministic fault injection for the fault-injection tool itself.
   A failpoint is a named site compiled into a crash path (cache
   writes, queue appends, journal records, domain sessions); arming one
   - programmatically or through ANAFAULT_FAILPOINTS - makes that site
   misbehave on cue, so tests and smoke scripts can force every
   recovery path instead of waiting for the power to fail.

   Sudden death is Unix._exit: no at_exit, no channel flushing, the
   closest a process can come to kill -9 from the inside. *)

(* Every site compiled into the tree, in one list.  [<int>] stands for
   a decimal index: the campaign domain opening its engine session. *)
let sites =
  [
    "journal.record";
    "queue.append";
    "queue.appended";
    "cache.store";
    "cache.store.torn";
    "pipeline.store";
    "job.run";
    "parsim.session.<int>";
    "cancel.tombstone";
  ]

let slot = "<int>"

let matches site name =
  match String.index_opt site '<' with
  | None -> String.equal site name
  | Some i ->
    let j = i + String.length slot in
    let pre = String.sub site 0 i
    and post = String.sub site j (String.length site - j) in
    let k = String.length name - String.length pre - String.length post in
    k > 0
    && String.starts_with ~prefix:pre name
    && String.ends_with ~suffix:post name
    && String.for_all
         (function '0' .. '9' -> true | _ -> false)
         (String.sub name (String.length pre) k)

let declared name = List.exists (fun site -> matches site name) sites

type action =
  | Crash (* sudden death: Unix._exit 70, nothing flushed *)
  | Fail (* raise [Injected] - a typed, catchable error *)
  | Delay of float (* sleep this many seconds, then continue *)
  | Torn of float (* write sites: commit only this fraction of the bytes *)

exception Injected of string

type point = {
  action : action;
  mutable countdown : int; (* fires when a hit brings this to 0 *)
  mutable spent : bool;
}

(* One process-global registry; the mutex keeps arming and hitting
   coherent across the daemon's handler/scheduler threads.  The hit
   path takes the lock only when at least one point is armed, so an
   unarmed binary pays one mutable read per site. *)
let points : (string, point) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()
let armed = ref false

let reset () =
  Mutex.protect lock @@ fun () ->
  Hashtbl.reset points;
  armed := false

let arm ?(after = 1) name action =
  Mutex.protect lock @@ fun () ->
  Hashtbl.replace points name { action; countdown = max 1 after; spent = false };
  armed := true

let die () = Unix._exit 70

(* [take name] returns the action to perform now, if any, consuming the
   point's charge.  Delay points stay armed (every hit delays); the
   destructive actions are one-shot per process. *)
let take name =
  if not !armed then None
  else
    Mutex.protect lock @@ fun () ->
    match Hashtbl.find_opt points name with
    | None -> None
    | Some p ->
      if p.spent then None
      else begin
        p.countdown <- p.countdown - 1;
        if p.countdown > 0 then None
        else begin
          (match p.action with Delay _ -> p.countdown <- 1 | _ -> p.spent <- true);
          Some p.action
        end
      end

let hit name =
  match take name with
  | None | Some (Torn _) -> ()
  | Some Crash -> die ()
  | Some Fail -> raise (Injected name)
  | Some (Delay s) -> Unix.sleepf s

let cut name payload =
  match take name with
  | Some (Torn frac) ->
    let n = String.length payload in
    let keep = max 0 (min (n - 1) (int_of_float (frac *. float_of_int n))) in
    Some (String.sub payload 0 keep)
  | Some Crash -> die ()
  | Some Fail -> raise (Injected name)
  | Some (Delay s) ->
    Unix.sleepf s;
    None
  | None -> None

let active name =
  if not !armed then false
  else
    Mutex.protect lock @@ fun () ->
    match Hashtbl.find_opt points name with
    | Some p -> not p.spent
    | None -> false

(* --- The spec language -------------------------------------------------

   SPEC    ::= point ( "," point )*
   point   ::= NAME "=" action [ "@" COUNT ]
   action  ::= "crash" | "fail" | "delay" ":" SECONDS | "torn" ":" FRACTION

   e.g.  journal.record=crash@3,cache.store.torn=torn:0.5,parsim.session.0=fail *)

let split_once ch s =
  match String.index_opt s ch with
  | None -> (s, None)
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let parse_point spec =
  let name, rhs = split_once '=' spec in
  match rhs with
  | None | Some "" -> Error (Printf.sprintf "failpoint %S: want NAME=ACTION" spec)
  | Some rhs ->
    if String.trim name = "" then
      Error (Printf.sprintf "failpoint %S: empty name" spec)
    else begin
      let rhs, after =
        match String.rindex_opt rhs '@' with
        | None -> (rhs, Ok 1)
        | Some i -> begin
          let count = String.sub rhs (i + 1) (String.length rhs - i - 1) in
          match int_of_string_opt count with
          | Some n when n >= 1 -> (String.sub rhs 0 i, Ok n)
          | _ ->
            (rhs, Error (Printf.sprintf "failpoint %S: bad hit count %S" spec count))
        end
      in
      match after with
      | Error _ as e -> e
      | Ok after -> begin
        let action, arg = split_once ':' rhs in
        let num what =
          match Option.bind arg float_of_string_opt with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "failpoint %S: %s wants a number" spec what)
        in
        let act =
          match action with
          | ("crash" | "fail") when arg <> None ->
            Error (Printf.sprintf "failpoint %S: %s takes no argument" spec action)
          | "crash" -> Ok Crash
          | "fail" -> Ok Fail
          | "delay" -> Result.map (fun s -> Delay s) (num "delay")
          | "torn" -> Result.map (fun f -> Torn f) (num "torn")
          | other -> Error (Printf.sprintf "failpoint %S: unknown action %S" spec other)
        in
        Result.map (fun act -> (String.trim name, after, act)) act
      end
    end

(* All or nothing: a spec with one bad point arms none of them. *)
let configure spec =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest -> begin
      match parse_point entry with
      | Error _ as e -> e
      | Ok (name, _, _) when not (declared name) ->
        Error (Printf.sprintf "failpoint %S: no site is named %S" entry name)
      | Ok point -> parse (point :: acc) rest
    end
  in
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> parse []
  |> Result.map (List.iter (fun (name, after, act) -> arm ~after name act))

let env_var = "ANAFAULT_FAILPOINTS"

let load_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some spec -> configure spec
