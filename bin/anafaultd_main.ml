(* anafaultd: the resident campaign service.

     dune exec bin/anafaultd_main.exe -- --socket PATH [--work-dir DIR]
         [--cache-dir DIR] [--cache-budget BYTES] [--queue-limit N]
         [--quota N] [--lift-domains N]
         [--job-deadline S] [--grace S] [--verbose]

   Accepts campaign jobs over newline-delimited JSON on a Unix-domain
   socket (submit / extract / stats / ping / shutdown), runs them
   through the shared Campaign machinery, streams typed progress events
   back, and answers repeat submissions of the same campaign
   fingerprint from a content-addressed result cache.  An extract
   request runs the staged LIFT pipeline over a shipped layout
   (--lift-domains sets the per-tile fan-out, stage artefacts persist
   under <work-dir>/lift-stages), caches the ranked fault list under
   its lift- fingerprint, and can chain the extracted list straight
   into an attached simulation spec.  Accepted jobs are journalled to a
   write-ahead queue first, so a daemon killed -9 replays and finishes
   them at the next start, and the campaign journal restores every
   fault the killed run completed.  Each job simulates in-process on
   the submitted spec's own domain count.

   Clients are the anafault CLI's --remote / --remote-stats /
   --remote-shutdown flags; the wire protocol is documented in
   DESIGN.md. *)

(* "64M"-style sizes for --cache-budget. *)
let parse_size s =
  let s = String.trim s in
  if s = "" then Error (`Msg "empty size")
  else begin
    let scale, digits =
      match s.[String.length s - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (String.length s - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (String.length s - 1))
      | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (String.length s - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some n when n >= 0 -> Ok (n * scale)
    | Some _ | None -> Error (`Msg (s ^ ": want BYTES with an optional k/M/G"))
  end

let size_conv =
  Cmdliner.Arg.conv
    (parse_size, fun ppf n -> Format.fprintf ppf "%d" n)

let run socket_path work_dir cache_dir cache_budget queue_limit client_quota
    lift_domains job_deadline grace verbose =
  (match Obs.Failpoint.load_env () with
  | Ok () -> ()
  | Error msg -> Format.eprintf "warning: failpoints: %s@." msg);
  let cfg =
    {
      (Anafaultd.Server.default_config ~socket_path ~work_dir) with
      Anafaultd.Server.cache_dir;
      cache_budget;
      queue_limit;
      client_quota;
      lift_domains;
      job_deadline;
      grace;
      verbose;
    }
  in
  match Anafaultd.Server.run cfg with
  | Ok () -> 0
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    1

open Cmdliner

let socket_path =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (beware the ~100-character \
                 sun_path limit).")

let work_dir =
  Arg.(value & opt string "anafaultd-work"
       & info [ "work-dir" ] ~docv:"DIR"
           ~doc:"Directory for campaign journals, the queue WAL and the \
                 default result cache (created if missing).")

let cache_dir =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Result cache root; defaults to DIR/cache under --work-dir.")

let cache_budget =
  Arg.(value & opt size_conv 0
       & info [ "cache-budget" ] ~docv:"BYTES"
           ~doc:"Bound the result cache to $(docv) (suffixes k/M/G); \
                 least-recently-used entries are evicted past it. 0 = \
                 unbounded.")

let queue_limit =
  Arg.(value & opt int 0
       & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Reject (queue_full) submissions past $(docv) \
                 queued-or-running jobs. 0 = unbounded.")

let client_quota =
  Arg.(value & opt int 0
       & info [ "quota" ] ~docv:"N"
           ~doc:"Reject (quota_exceeded) a client's submissions past $(docv) \
                 of its jobs queued or running. 0 = unbounded.")

let lift_domains =
  Arg.(value & opt int 1
       & info [ "lift-domains" ] ~docv:"N"
           ~doc:"Worker domains for the per-tile stages of extract requests' \
                 staged LIFT pipeline (1 = serial).")

let job_deadline =
  Arg.(value & opt (some float) None
       & info [ "job-deadline" ] ~docv:"S"
           ~doc:"Cancel any job still queued or running $(docv) seconds after \
                 its acceptance, salvaging every journalled fault; also caps \
                 each submission's own deadline_s.  Unset = no cap.")

let grace =
  Arg.(value & opt float 2.0
       & info [ "grace" ] ~docv:"S"
           ~doc:"Seconds an orphaned job (every subscriber gone) may keep \
                 running before it is cancelled.")

let verbose =
  Arg.(value & flag
       & info [ "verbose" ] ~doc:"Log jobs and cache traffic to stderr.")

let cmd =
  let doc = "resident campaign service for AnaFAULT (job queue + result cache)" in
  Cmd.v
    (Cmd.info "anafaultd" ~doc)
    Term.(
      const run $ socket_path $ work_dir $ cache_dir $ cache_budget
      $ queue_limit $ client_quota $ lift_domains $ job_deadline $ grace
      $ verbose)

let () = exit (Cmd.eval' cmd)
