(* Content-addressed result store with a size budget.

   One <fingerprint>.json file per campaign result: the result JSON
   sealed by [Durable.seal] (magic line, MD5 hex, payload).

   Writes are one [Durable.replace] (fsynced file, rename, fsynced
   directory), so a crash - or a power loss - never commits an empty
   or torn entry.  Reads [Durable.unseal]; an entry that fails (bit
   rot, a torn write forced through a failpoint, an entry in an older
   format) is quarantined to <name>.corrupt and treated as a miss,
   never a crash.  A failed write (disk full, a [cache.store=fail]
   failpoint) is counted and dropped: the cache is an accelerator,
   the campaign journal is what promises durability.

   The budget is enforced with LRU eviction at store time: live entries
   are evicted oldest-use first until the directory fits, and an entry
   larger than the whole budget is simply not stored.  Use order is
   tracked in memory (a logical clock), seeded from file mtimes at
   open.

   Failpoints: [cache.store] fires before a write, [cache.store.torn]
   can tear the committed bytes. *)

module J = Obs.Json

let ( let* ) = Result.bind

type t = {
  dir : string;
  budget : int; (* bytes; 0 = unbounded *)
  obs : Obs.sink;
  lock : Mutex.t;
  sizes : (string, int) Hashtbl.t; (* key -> on-disk bytes *)
  stamps : (string, int) Hashtbl.t; (* key -> last-use logical time *)
  mutable clock : int;
  mutable total : int; (* sum of sizes *)
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
}

(* A key is a hex fingerprint, optionally namespaced by a short
   lowercase prefix ("lift-<hex>" for extraction results): enough
   structure to be safe as a file name, loose enough for every job
   kind the daemon caches. *)
let valid_key key =
  let hex s =
    s <> ""
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
         s
  in
  match String.index_opt key '-' with
  | None -> hex key
  | Some i ->
    i > 0
    && String.for_all
         (fun c -> c >= 'a' && c <= 'z')
         (String.sub key 0 i)
    && hex (String.sub key (i + 1) (String.length key - i - 1))

let entry_path t key = Filename.concat t.dir (key ^ ".json")

let key_of_file name =
  match Filename.chop_suffix_opt ~suffix:".json" name with
  | Some key when valid_key key -> Some key
  | Some _ | None -> None

(* Seed sizes and the LRU order from what is on disk: mtime order is
   the best use order a fresh process can know. *)
let scan t =
  let files =
    match Sys.readdir t.dir with
    | exception Sys_error _ -> [||]
    | names -> names
  in
  let entries =
    Array.to_list files
    |> List.filter_map (fun name ->
           match key_of_file name with
           | None -> None
           | Some key -> begin
             match Unix.stat (Filename.concat t.dir name) with
             | exception Unix.Unix_error _ -> None
             | st when st.Unix.st_kind = Unix.S_REG ->
               Some (key, st.Unix.st_size, st.Unix.st_mtime)
             | _ -> None
           end)
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
  in
  List.iter
    (fun (key, size, _) ->
      Hashtbl.replace t.sizes key size;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.stamps key t.clock;
      t.total <- t.total + size)
    entries

let create ?(budget_bytes = 0) ?(obs = Obs.null) ~dir () =
  let* () = Durable.ensure_dir dir in
  let t =
    {
      dir;
      budget = max 0 budget_bytes;
      obs;
      lock = Mutex.create ();
      sizes = Hashtbl.create 16;
      stamps = Hashtbl.create 16;
      clock = 0;
      total = 0;
      hits = 0;
      misses = 0;
      stores = 0;
      evictions = 0;
      corrupt = 0;
    }
  in
  scan t;
  Ok t

let dir t = t.dir

let forget t key =
  (match Hashtbl.find_opt t.sizes key with
  | Some size -> t.total <- t.total - size
  | None -> ());
  Hashtbl.remove t.sizes key;
  Hashtbl.remove t.stamps key

(* --- Entry format ------------------------------------------------------ *)

let magic = "ANAFAULT-CACHE2\n"

(* [None] = the entry fails validation (missing files are handled by
   the caller; everything unreadable here is corruption). *)
let read_entry path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | blob ->
    Option.bind (Durable.unseal ~magic blob) (fun payload ->
        Result.to_option (J.of_string payload))

(* Set a failed entry aside for post-mortems rather than crashing on it
   or re-reading it forever. *)
let quarantine t key path =
  (try Sys.rename path (path ^ ".corrupt")
   with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  forget t key;
  t.corrupt <- t.corrupt + 1;
  Obs.count t.obs "cache.corrupt" 1 ~attrs:[ ("key", Obs.Str key) ]

let find t key =
  Mutex.protect t.lock @@ fun () ->
  let result =
    if not (valid_key key) then None
    else begin
      let path = entry_path t key in
      if not (Sys.file_exists path) then None
      else begin
        match read_entry path with
        | Some json ->
          t.clock <- t.clock + 1;
          Hashtbl.replace t.stamps key t.clock;
          Some json
        | None ->
          quarantine t key path;
          None
      end
    end
  in
  (match result with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  result

(* Evict least-recently-used live entries until [fresh] fits the
   budget.  [fresh] itself is never evicted here - it just got used. *)
let enforce_budget t ~fresh =
  if t.budget > 0 then begin
    while
      t.total > t.budget
      && Hashtbl.length t.sizes > 1
      &&
      let victim =
        Hashtbl.fold
          (fun key stamp acc ->
            if String.equal key fresh then acc
            else
              match acc with
              | Some (_, best) when best <= stamp -> acc
              | _ -> Some (key, stamp))
          t.stamps None
      in
      match victim with
      | None -> false
      | Some (key, _) ->
        (try Sys.remove (entry_path t key) with Sys_error _ -> ());
        forget t key;
        t.evictions <- t.evictions + 1;
        Obs.count t.obs "cache.evictions" 1 ~attrs:[ ("key", Obs.Str key) ];
        true
    do
      ()
    done
  end

(* Commit an entry's bytes and return how many landed.  A torn-write
   failpoint commits a prefix, unfsynced, as a crash mid-write would. *)
let commit t key body =
  let path = entry_path t key in
  match Obs.Failpoint.cut "cache.store.torn" body with
  | Some prefix ->
    Durable.replace ~sync:false path (fun oc -> output_string oc prefix);
    String.length prefix
  | None ->
    Durable.replace path (fun oc -> output_string oc body);
    String.length body

let store t key json =
  if valid_key key then
    Mutex.protect t.lock @@ fun () ->
    match
      Obs.Failpoint.hit "cache.store";
      let body = Durable.seal ~magic (J.to_string json) in
      if t.budget > 0 && String.length body > t.budget then None
      else Some (commit t key body)
    with
    | None ->
      (* Larger than the whole cache: storing it would evict everything
         and still bust the budget.  Skip it. *)
      Obs.count t.obs "cache.oversized" 1 ~attrs:[ ("key", Obs.Str key) ]
    | Some size ->
      forget t key;
      Hashtbl.replace t.sizes key size;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.stamps key t.clock;
      t.total <- t.total + size;
      t.stores <- t.stores + 1;
      enforce_budget t ~fresh:key
    | exception ((Sys_error _ | Unix.Unix_error _ | Obs.Failpoint.Injected _) as e)
      ->
      Obs.count t.obs "cache.store_failed" 1
        ~attrs:[ ("key", Obs.Str key); ("error", Obs.Str (Printexc.to_string e)) ]

let total_bytes t = Mutex.protect t.lock @@ fun () -> t.total

let hits t = Mutex.protect t.lock @@ fun () -> t.hits

let misses t = Mutex.protect t.lock @@ fun () -> t.misses

let stores t = Mutex.protect t.lock @@ fun () -> t.stores

let evictions t = Mutex.protect t.lock @@ fun () -> t.evictions

let corrupt t = Mutex.protect t.lock @@ fun () -> t.corrupt
