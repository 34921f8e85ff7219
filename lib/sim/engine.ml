type integration = Backward_euler | Trapezoidal

(* A budget bounds the work one analysis may spend before the kernel
   gives up deterministically with [Budget_exceeded].  All limits are
   cumulative over the whole analysis, not per solve. *)
type budget = {
  max_newton_iterations : int option;
  max_steps : int option;
  deadline_seconds : float option;
}

let unlimited =
  { max_newton_iterations = None; max_steps = None; deadline_seconds = None }

type options = {
  gmin : float;
  reltol : float;
  abstol : float;
  max_iter : int;
  dv_limit : float;
  cmin : float;
  integration : integration;
  budget : budget;
  (* Pure run-state, not configuration: excluded from campaign
     fingerprints so cancellable and uncancellable runs of the same
     campaign share journals and cache entries. *)
  cancel : Cancel.t;
}

let default_options =
  {
    gmin = 1e-12;
    reltol = 1e-3;
    abstol = 1e-6;
    max_iter = 150;
    dv_limit = 1.0;
    cmin = 1e-16;
    integration = Backward_euler;
    budget = unlimited;
    cancel = Cancel.never;
  }

type error =
  | Dc_no_convergence
  | Tran_step_underflow
  | Singular_matrix
  | Budget_exceeded
  | Cancelled

let error_to_string = function
  | Dc_no_convergence -> "dc_no_convergence"
  | Tran_step_underflow -> "tran_step_underflow"
  | Singular_matrix -> "singular_matrix"
  | Budget_exceeded -> "budget_exceeded"
  | Cancelled -> "cancelled"

exception Sim_error of error * string

exception Patch_overflow of string

type solution = { mna : Mna.t; v : float array }

let voltage sol name =
  let i = Mna.node_id sol.mna name in
  if i < 0 then 0.0 else sol.v.(i)

let branch_current sol name = sol.v.(Mna.branch_id sol.mna name)

type stats = {
  newton_iterations : int;
  accepted_steps : int;
  rejected_steps : int;
}

(* Reactive-element history: [q] is the previous across-variable
   (capacitor voltage / inductor current), [f] the previous
   through-variable (capacitor current / inductor voltage). *)
type state = { mutable q : float; mutable f : float }

type cdev =
  | CR of { i : int; j : int; g : float }
  | CC of { i : int; j : int; c : float; ic : float option; st : state }
  | CL of { i : int; j : int; br : int; ind : float; ic : float option; st : state }
  | CV of { i : int; j : int; br : int; wave : Netlist.Wave.t }
  | CI of { i : int; j : int; wave : Netlist.Wave.t }
  | CD of { i : int; j : int; is_sat : float; nvt : float }
  | CM of {
      d : int;
      g : int;
      s : int;
      model : Netlist.Device.mos_model;
      w : float;
      l : float;
      cg : float; (* gate-to-source and gate-to-drain capacitance, each *)
      st_gs : state;
      st_gd : state;
    }

(* [nid]/[bid] resolve node and branch names to unknown indices; a
   session patch supplies lookups that also know the overlay rows. *)
let compile_device ~nid ~bid = function
  | Netlist.Device.R { n1; n2; value; _ } ->
    if value = 0.0 then invalid_arg "Engine: zero-valued resistor";
    CR { i = nid n1; j = nid n2; g = 1.0 /. value }
  | Netlist.Device.C { n1; n2; value; ic; _ } ->
    CC { i = nid n1; j = nid n2; c = value; ic; st = { q = 0.0; f = 0.0 } }
  | Netlist.Device.L { name; n1; n2; value; ic } ->
    CL { i = nid n1; j = nid n2; br = bid name; ind = value; ic; st = { q = 0.0; f = 0.0 } }
  | Netlist.Device.V { name; np; nn; wave } ->
    CV { i = nid np; j = nid nn; br = bid name; wave }
  | Netlist.Device.I { np; nn; wave; _ } -> CI { i = nid np; j = nid nn; wave }
  | Netlist.Device.D { na; nc; model; _ } ->
    CD { i = nid na; j = nid nc; is_sat = model.is_sat; nvt = model.n_emission *. 0.025852 }
  | Netlist.Device.M { d; g; s; model; w; l; _ } ->
    (* The level-1 model ignores the bulk terminal (no body effect); the
       gate loads its neighbours with half the oxide capacitance each. *)
    CM
      {
        d = nid d;
        g = nid g;
        s = nid s;
        model;
        w;
        l;
        cg = 0.5 *. model.cox *. w *. l;
        st_gs = { q = 0.0; f = 0.0 };
        st_gd = { q = 0.0; f = 0.0 };
      }

let compile mna circuit =
  let nid = Mna.node_id mna and bid = Mna.branch_id mna in
  Array.of_list
    (List.map (compile_device ~nid ~bid) (Netlist.Circuit.devices circuit))

type mode =
  | Dc of { scale : float }
  | Tran of { h : float; time : float; vnode_prev : float array }

let[@inline] gv v i = if i < 0 then 0.0 else v.(i)

(* Exponential with linear extension beyond x = 40 to avoid overflow while
   keeping the Jacobian consistent with the residual: the value goes to
   [ev.(0)] and the slope to [ev.(1)] of an evaluation scratch, so no
   float is boxed. *)
let[@inline] exp_lim ev x =
  if x > 40.0 then begin
    let e40 = exp 40.0 in
    ev.(0) <- e40 *. (1.0 +. x -. 40.0);
    ev.(1) <- e40
  end
  else begin
    let e = exp x in
    ev.(0) <- e;
    ev.(1) <- e
  end

(* --- Stamp plans -------------------------------------------------------- *)

(* A device array is compiled once per topology into a stamp plan: every
   matrix entry the devices and the node pins stamp, in stamp order, as
   solver targets, plus the right-hand-side row of every RHS entry.  The
   per-device layout is fixed (the counts below); [stamp] walks the
   devices with one cursor into each array and adds through the slots,
   so an iteration makes no per-entry call and no allocation.
   Companion-model entries are marked transient-only: DC stamps none of
   them, and the pattern of a DC solve must hold exactly the coordinates
   it stamps.

   Matrix entries / RHS rows per device:
     CR 4 / 0    CC 4 / 2 (transient only)    CL 4 + 1 / 1 (the last
     matrix entry and the RHS transient only)    CV 4 / 1    CI 0 / 2
     CD 4 / 2    CM 8 / 4 (the two gate capacitors, transient only)
     then 6 / 2
   then one diagonal entry per pinned node row (gmin, and cmin in a
   transient). *)
type plan = {
  targets : Sparse.targets;
  rhs : int array; (* ground -> the solver's dump row *)
  pins : int array; (* node rows pinned to ground *)
}

let matrix_entries = function
  | CR _ | CC _ | CV _ | CD _ -> 4
  | CL _ -> 5
  | CI _ -> 0
  | CM _ -> 14

let rhs_entries = function
  | CR _ -> 0
  | CL _ | CV _ -> 1
  | CC _ | CI _ | CD _ -> 2
  | CM _ -> 6

(* Writes [dev]'s matrix keys into [keys] from [!km] and its RHS rows
   into [rhs] from [!kr], advancing both cursors. *)
let emit_device sv keys km rhs kr dev =
  let ground = Sparse.capacity sv in
  let m ?(tran = false) i j =
    keys.(!km) <- Sparse.key sv ~tran i j;
    incr km
  in
  let g ?tran i j =
    m ?tran i i;
    m ?tran j j;
    m ?tran i j;
    m ?tran j i
  in
  let r i =
    rhs.(!kr) <- (if i < 0 then ground else i);
    incr kr
  in
  match dev with
  | CR { i; j; _ } -> g i j
  | CC { i; j; _ } ->
    g ~tran:true i j;
    r i;
    r j
  | CL { i; j; br; _ } ->
    m i br;
    m j br;
    m br i;
    m br j;
    m ~tran:true br br;
    r br
  | CV { i; j; br; _ } ->
    m i br;
    m j br;
    m br i;
    m br j;
    r br
  | CI { i; j; _ } ->
    r i;
    r j
  | CD { i; j; _ } ->
    g i j;
    r i;
    r j
  | CM { d; g = gate; s; _ } ->
    g ~tran:true gate s;
    g ~tran:true gate d;
    r gate;
    r s;
    r gate;
    r d;
    m d d;
    m d gate;
    m d s;
    m s d;
    m s gate;
    m s s;
    r d;
    r s

let pin_key sv i = Sparse.key sv i i

let make_plan sv devices ~pins =
  let count f = Array.fold_left (fun n d -> n + f d) 0 devices in
  let keys = Array.make (count matrix_entries + Array.length pins) 0 in
  let rhs = Array.make (count rhs_entries) 0 in
  let km = ref 0 and kr = ref 0 in
  Array.iter (emit_device sv keys km rhs kr) devices;
  Array.iteri (fun p i -> keys.(!km + p) <- pin_key sv i) pins;
  { targets = Sparse.targets keys; rhs; pins }

(* The adders of the device loop.  Top-level and inlined, so the float
   they add is never boxed. *)
let[@inline] add (a : float array) (sl : int array) k x =
  let p = sl.(k) in
  a.(p) <- a.(p) +. x

(* A conductance between the four slots [k .. k+3] of one entry group:
   (i,i), (j,j), (i,j), (j,i). *)
let[@inline] add_g a sl k g =
  add a sl k g;
  add a sl (k + 1) g;
  add a sl (k + 2) (-.g);
  add a sl (k + 3) (-.g)

let[@inline] add_rhs (b : float array) (rows : int array) k x =
  let p = rows.(k) in
  b.(p) <- b.(p) +. x

(* Companion model of a linear capacitor: a conductance into four slots
   from [km] and a current into two RHS rows from [kr]. *)
let[@inline] stamp_cap ~integration ~h a sl km b rows kr c st =
  let geq =
    match integration with
    | Backward_euler -> c /. h
    | Trapezoidal -> 2.0 *. c /. h
  in
  let const =
    match integration with
    | Backward_euler -> geq *. st.q
    | Trapezoidal -> (geq *. st.q) +. st.f
  in
  add_g a sl km geq;
  add_rhs b rows kr const;
  add_rhs b rows (kr + 1) (-.const)

let output_names mna =
  Array.append (Mna.node_names mna)
    (Array.map (fun b -> "I(" ^ b ^ ")") (Mna.branch_names mna))

(* The solver context: one circuit topology's compiled devices plus the
   solver owning the buffers every solve reuses.  [size] is the number of
   active unknowns (may be below the solver capacity when a session
   reserves overlay rows); the node rows are the plan's pinned rows.
   [names] labels every active unknown, for diagnostics. *)
type ctx = {
  opts : options;
  sv : Sparse.t;
  size : int;
  devices : cdev array;
  plan : plan;
  ev : Mosfet.scratch; (* device evaluation scratch, one per session *)
  obs : Obs.sink;
  names : string array;
}

let unknown_label ctx row =
  if row >= 0 && row < Array.length ctx.names then ctx.names.(row)
  else Printf.sprintf "unknown #%d" row

(* One pass of the device loop: assemble the Jacobian and right-hand side
   at iterate [v] into the solver's storage.  Every cell receives the
   same additions in the same order as stamping entry by entry would. *)
let stamp ~gmin ~mode ctx v =
  let opts = ctx.opts and plan = ctx.plan and sv = ctx.sv in
  let tran = match mode with Dc _ -> false | Tran _ -> true in
  let sl = Sparse.begin_stamp sv ~n:ctx.size ~tran plan.targets in
  let a = Sparse.values sv and b = Sparse.rhs sv and rows = plan.rhs in
  let ev = ctx.ev and integration = opts.integration in
  let devices = ctx.devices in
  let km = ref 0 and kr = ref 0 in
  for di = 0 to Array.length devices - 1 do
    match devices.(di) with
    | CR { g; _ } ->
      add_g a sl !km g;
      km := !km + 4
    | CC { c; st; _ } ->
      (match mode with
      | Dc _ -> ()
      | Tran { h; _ } -> stamp_cap ~integration ~h a sl !km b rows !kr c st);
      km := !km + 4;
      kr := !kr + 2
    | CL { ind; st; _ } ->
      let k = !km in
      add a sl k 1.0;
      add a sl (k + 1) (-1.0);
      add a sl (k + 2) 1.0;
      add a sl (k + 3) (-1.0);
      (match mode with
      | Dc _ -> () (* ideal short: v_i - v_j = 0 *)
      | Tran { h; _ } -> begin
        match integration with
        | Backward_euler ->
          let r = ind /. h in
          add a sl (k + 4) (-.r);
          add_rhs b rows !kr (-.r *. st.q)
        | Trapezoidal ->
          let r = 2.0 *. ind /. h in
          add a sl (k + 4) (-.r);
          add_rhs b rows !kr ((-.r *. st.q) -. st.f)
      end);
      km := k + 5;
      kr := !kr + 1
    | CV { wave; _ } ->
      let e =
        match mode with
        | Dc { scale } -> scale *. Netlist.Wave.dc_value wave
        | Tran { time; _ } -> Netlist.Wave.value wave time
      in
      let k = !km in
      add a sl k 1.0;
      add a sl (k + 1) (-1.0);
      add a sl (k + 2) 1.0;
      add a sl (k + 3) (-1.0);
      add_rhs b rows !kr e;
      km := k + 4;
      kr := !kr + 1
    | CI { wave; _ } ->
      let cur =
        match mode with
        | Dc { scale } -> scale *. Netlist.Wave.dc_value wave
        | Tran { time; _ } -> Netlist.Wave.value wave time
      in
      add_rhs b rows !kr (-.cur);
      add_rhs b rows (!kr + 1) cur;
      kr := !kr + 2
    | CD { i; j; is_sat; nvt } ->
      let vd = gv v i -. gv v j in
      exp_lim ev (vd /. nvt);
      let id = is_sat *. (ev.(0) -. 1.0) in
      let gd = (is_sat *. ev.(1) /. nvt) +. gmin in
      let ieq = id -. (gd *. vd) in
      add_g a sl !km gd;
      add_rhs b rows !kr (-.ieq);
      add_rhs b rows (!kr + 1) ieq;
      km := !km + 4;
      kr := !kr + 2
    | CM { d; g; s; model; w; l; cg; st_gs; st_gd } ->
      (match mode with
      | Dc _ -> ()
      | Tran { h; _ } ->
        stamp_cap ~integration ~h a sl !km b rows !kr cg st_gs;
        stamp_cap ~integration ~h a sl (!km + 4) b rows (!kr + 2) cg st_gd);
      let k = !km + 8 and kb = !kr + 4 in
      let vgs = gv v g -. gv v s and vds = gv v d -. gv v s in
      ev.(Mosfet.vgs) <- vgs;
      ev.(Mosfet.vds) <- vds;
      Mosfet.eval model ~w ~l ev;
      let gm = ev.(Mosfet.gm) in
      let gds = ev.(Mosfet.gds) +. gmin in
      let ieq = ev.(Mosfet.ids) -. (gm *. vgs) -. (gds *. vds) in
      (* Current leaving the drain node: gm*vgs + gds*vds + ieq. *)
      add a sl k gds;
      add a sl (k + 1) gm;
      add a sl (k + 2) (-.(gm +. gds));
      add a sl (k + 3) (-.gds);
      add a sl (k + 4) (-.gm);
      add a sl (k + 5) (gm +. gds);
      add_rhs b rows kb (-.ieq);
      add_rhs b rows (kb + 1) ieq;
      km := k + 6;
      kr := kb + 2
  done;
  let pins = plan.pins and k = !km in
  for p = 0 to Array.length pins - 1 do
    add a sl (k + p) gmin;
    match mode with
    | Tran { h; vnode_prev; _ } when opts.cmin > 0.0 ->
      let i = pins.(p) in
      let geq = opts.cmin /. h in
      add a sl (k + p) geq;
      b.(i) <- b.(i) +. (geq *. vnode_prev.(i))
    | Tran _ | Dc _ -> ()
  done

(* Newton iteration limit of a transient solve, SPICE's ITL4: a step
   that has not converged by then is rejected and retried at half the
   step, which is cheaper than iterating on.  DC solves run to
   [options.max_iter]. *)
let tran_max_iter = 25

(* Largest move of a node voltage from [v] to [x].  Step-length damping
   applies to node voltages only: branch currents (e.g. through an
   injected 10 mohm short) legitimately move by hundreds of amperes in
   one Newton step. *)
let[@inline] node_dv ctx x v =
  let pins = ctx.plan.pins in
  let max_dv = ref 0.0 in
  for p = 0 to Array.length pins - 1 do
    let i = pins.(p) in
    max_dv := Float.max !max_dv (Float.abs (x.(i) -. v.(i)))
  done;
  !max_dv

(* Damped Newton-Raphson, at most [max_iter] iterations.  Returns the
   converged iterate and the number of iterations, or the reason the
   solve failed ([`Singular row] when the last factorisation hit a
   singular pivot at the named unknown, [`No_conv] otherwise) - callers
   use the distinction to raise a typed {!Sim_error}.  With a live sink,
   each solve reports its iteration count, the time spent stamping and
   in factor+solve, and how often the dv clamp fired; the [traced] flag
   keeps the telemetry arithmetic entirely off the null-sink path. *)
let newton ?into ~max_iter ~gmin ~mode ctx v0 =
  let opts = ctx.opts in
  let size = ctx.size in
  let sv = ctx.sv in
  let traced = Obs.enabled ctx.obs in
  let clamp_hits = ref 0 and lu_seconds = ref 0.0 and stamp_seconds = ref 0.0 in
  let finish result =
    if traced then begin
      let iters, ok =
        match result with Ok (_, k) -> (k, true) | Error (_, k) -> (k, false)
      in
      Obs.sample ctx.obs "engine.newton.iters_per_solve" (float_of_int iters);
      Obs.sample ctx.obs "engine.stamp.seconds_per_solve" !stamp_seconds;
      Obs.sample ctx.obs "engine.lu.seconds_per_solve" !lu_seconds;
      if !clamp_hits > 0 then Obs.count ctx.obs "engine.newton.dv_clamp" !clamp_hits;
      if not ok then Obs.count ctx.obs "engine.newton.failed" 1;
      Sparse.flush_stats sv ctx.obs
    end;
    result
  in
  (* The iterate: a copy of [v0], in [into] when the caller recycles a
     buffer of the same length. *)
  let v =
    match into with
    | Some buf ->
      Array.blit v0 0 buf 0 (Array.length v0);
      buf
    | None -> Array.copy v0
  in
  (* Traced, the stamp's end is the factorisation's start: one clock
     read serves both. *)
  let assemble_and_solve () =
    if not traced then begin
      stamp ~gmin ~mode ctx v;
      Sparse.factor_solve sv
    end
    else begin
      let t0 = Obs.Clock.now () in
      stamp ~gmin ~mode ctx v;
      let t1 = Obs.Clock.now () in
      stamp_seconds := !stamp_seconds +. (t1 -. t0);
      Fun.protect
        ~finally:(fun () -> lu_seconds := !lu_seconds +. (Obs.Clock.now () -. t1))
        (fun () -> Sparse.factor_solve sv)
    end
  in
  let rec iterate k total =
    (* The cancellation poll of the hottest loop: one atomic load per
       Newton iteration, raising the typed error the moment somebody
       cancelled - a stuck solve stops within one iteration. *)
    (match Cancel.get opts.cancel with
    | Some reason -> raise (Sim_error (Cancelled, Cancel.reason_to_string reason))
    | None -> ());
    if k >= max_iter then Error (`No_conv, total)
    else begin
      match assemble_and_solve () with
      | exception Sparse.Singular row -> Error (`Singular row, total + 1)
      | () ->
        let x = Sparse.rhs sv in
        let max_delta = ref 0.0 in
        for i = 0 to size - 1 do
          max_delta := Float.max !max_delta (Float.abs (x.(i) -. v.(i)))
        done;
        let max_dv = node_dv ctx x v in
        if Float.is_nan !max_delta then Error (`No_conv, total + 1)
        else if max_dv > opts.dv_limit then begin
          incr clamp_hits;
          let f = opts.dv_limit /. max_dv in
          for i = 0 to size - 1 do
            v.(i) <- v.(i) +. (f *. (x.(i) -. v.(i)))
          done;
          iterate (k + 1) (total + 1)
        end
        else begin
          let converged = ref true in
          for i = 0 to size - 1 do
            let tol = opts.abstol +. (opts.reltol *. Float.max (Float.abs x.(i)) (Float.abs v.(i))) in
            if Float.abs (x.(i) -. v.(i)) > tol then converged := false
          done;
          Array.blit x 0 v 0 size;
          if !converged then Ok (v, total + 1) else iterate (k + 1) (total + 1)
        end
    end
  in
  finish (iterate 0 0)

let dc_solve ctx =
  let opts = ctx.opts in
  (* Remember whether any attempt died on a singular factorisation (and
     at which unknown): a structurally singular system (e.g. an injected
     voltage-source loop) deserves a different diagnosis than a Newton
     iterate that merely wandered. *)
  let saw_singular = ref None in
  let try_newton ~gmin ~scale v0 =
    match newton ~max_iter:opts.max_iter ~gmin ~mode:(Dc { scale }) ctx v0 with
    | Ok res -> Some res
    | Error (`Singular row, _) ->
      saw_singular := Some row;
      None
    | Error (`No_conv, _) -> None
  in
  let zero = Array.make ctx.size 0.0 in
  match try_newton ~gmin:opts.gmin ~scale:1.0 zero with
  | Some (v, _) -> v
  | None -> begin
    Obs.count ctx.obs "engine.dc.gmin_stepping" 1;
    (* gmin stepping: solve with a heavy shunt first, then relax it. *)
    let rec gmin_steps v = function
      | [] -> Some v
      | g :: rest -> begin
        match try_newton ~gmin:g ~scale:1.0 v with
        | Some (v', _) -> gmin_steps v' rest
        | None -> None
      end
    in
    let ladder = [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10; opts.gmin ] in
    match gmin_steps zero ladder with
    | Some v -> v
    | None -> begin
      Obs.count ctx.obs "engine.dc.source_stepping" 1;
      (* Source stepping: ramp all independent sources from 10 % to 100 %. *)
      let rec source_steps v = function
        | [] -> Some v
        | s :: rest -> begin
          match try_newton ~gmin:opts.gmin ~scale:s v with
          | Some (v', _) -> source_steps v' rest
          | None -> None
        end
      in
      let ramp = List.init 10 (fun i -> 0.1 *. float_of_int (i + 1)) in
      match source_steps zero ramp with
      | Some v -> v
      | None ->
        Obs.count ctx.obs "engine.dc.failed" 1;
        (match !saw_singular with
        | Some row ->
          raise
            (Sim_error
               ( Singular_matrix,
                 Printf.sprintf
                   "DC system is singular at unknown %s (MNA matrix has no unique solution)"
                   (unknown_label ctx row) ))
        | None ->
          raise (Sim_error (Dc_no_convergence, "DC operating point did not converge")))
    end
  end

(* Initial transient state: DC operating point, or zeros plus capacitor
   ICs when [uic]. *)
let initial_state ~uic ctx =
  if uic then begin
    let v = Array.make ctx.size 0.0 in
    Array.iter
      (fun dev ->
        match dev with
        | CC { i; j; ic = Some vic; _ } ->
          if j < 0 then (if i >= 0 then v.(i) <- vic)
          else if i < 0 then v.(j) <- -.vic
          else v.(i) <- v.(j) +. vic
        | CL { br; ic = Some iic; _ } -> v.(br) <- iic
        | CC _ | CL _ | CR _ | CV _ | CI _ | CD _ | CM _ -> ())
      ctx.devices;
    v
  end
  else dc_solve ctx

let init_device_states devices v =
  Array.iter
    (fun dev ->
      match dev with
      | CC { i; j; st; _ } ->
        st.q <- gv v i -. gv v j;
        st.f <- 0.0
      | CL { i; j; br; st; _ } ->
        st.q <- v.(br);
        st.f <- gv v i -. gv v j
      | CM { d; g; s; st_gs; st_gd; _ } ->
        st_gs.q <- gv v g -. gv v s;
        st_gs.f <- 0.0;
        st_gd.q <- gv v g -. gv v d;
        st_gd.f <- 0.0
      | CR _ | CV _ | CI _ | CD _ -> ())
    devices

let update_cap ~opts ~h c st vd =
  let i_new =
    match opts.integration with
    | Backward_euler -> c /. h *. (vd -. st.q)
    | Trapezoidal -> (2.0 *. c /. h *. (vd -. st.q)) -. st.f
  in
  st.q <- vd;
  st.f <- i_new

let update_device_states ~opts ~h devices v =
  Array.iter
    (fun dev ->
      match dev with
      | CC { i; j; c; st; _ } -> update_cap ~opts ~h c st (gv v i -. gv v j)
      | CL { i; j; br; st; _ } ->
        st.q <- v.(br);
        st.f <- gv v i -. gv v j
      | CM { d; g; s; cg; st_gs; st_gd; _ } ->
        update_cap ~opts ~h cg st_gs (gv v g -. gv v s);
        update_cap ~opts ~h cg st_gd (gv v g -. gv v d)
      | CR _ | CV _ | CI _ | CD _ -> ())
    devices

(* The breakpoints of a compiled view's independent sources. *)
let breakpoints devices ~tstop =
  Array.fold_right
    (fun dev acc ->
      match dev with
      | CV { wave; _ } | CI { wave; _ } -> Netlist.Wave.breakpoints wave ~tstop @ acc
      | CR _ | CC _ | CL _ | CD _ | CM _ -> acc)
    devices []
  |> List.filter (fun t -> t > 0.0 && t < tstop)
  |> List.sort_uniq compare

(* One in-flight adaptive transient: the loop state as a record, so
   [transient_core] can pause it at a probe's checkpoints and stop it
   early without changing a single float operation of the run. *)
type stepper = {
  sctx : ctx;
  tstop : float;
  hmax : float;
  hmin : float;
  eps : float;
  mutable v : float array;
  mutable spare : float array; (* Newton's iterate buffer, swapped with [v] on acceptance *)
  vnode_prev : float array;
  record : int; (* the one unknown a probed run records, or -1: every one *)
  mutable samples : (float * float array) list; (* newest first *)
  mutable bps : float list;
  mutable h : float;
  mutable t : float;
  mutable at_edge : bool; (* [t] is 0 or a source breakpoint *)
  mutable total_iters : int;
  mutable wasted_iters : int; (* spent in rejected solves *)
  mutable accepted : int;
  mutable rejected : int;
  (* Budget enforcement: checked once per proposed step, so a
     pathological fault terminates deterministically instead of stalling
     its domain.  All-None budgets compile to three cheap matches; the
     clock is only read when a deadline is set. *)
  deadline : float option;
}

(* The sample kept of an accepted state [v]: every unknown, or only
   unknown [record]. *)
let recorded record v = if record < 0 then Array.copy v else [| v.(record) |]

let stepper_start ~record ctx ~tstep ~tstop ~uic =
  (* Written positively so a NaN or infinite value fails it too: an
     infinite tstop would step forever. *)
  if not (0.0 < tstep && tstep <= tstop && Float.is_finite tstop) then
    invalid_arg "Engine.transient: need 0 < tstep <= tstop, both finite";
  let v = initial_state ~uic ctx in
  init_device_states ctx.devices v;
  {
    sctx = ctx;
    tstop;
    hmax = tstep;
    hmin = tstop *. 1e-12;
    eps = tstop *. 1e-12;
    v;
    vnode_prev = Array.copy v;
    spare = Array.copy v;
    record;
    samples = [ (0.0, recorded record v) ];
    bps = breakpoints ctx.devices ~tstop;
    h = tstep /. 10.0;
    t = 0.0;
    at_edge = true;
    total_iters = 0;
    wasted_iters = 0;
    accepted = 0;
    rejected = 0;
    deadline =
      Option.map (fun s -> Obs.Clock.now () +. s) ctx.opts.budget.deadline_seconds;
  }

let stepper_done st = st.t >= st.tstop -. st.eps

let stepper_stats st =
  {
    newton_iterations = st.total_iters;
    accepted_steps = st.accepted;
    rejected_steps = st.rejected;
  }

(* Step counters are reported even when the transient stalls and raises:
   a diverging fault's work must not vanish from the trace. *)
let stepper_emit_counters st =
  if Obs.enabled st.sctx.obs then begin
    Obs.count st.sctx.obs "engine.tran.accepted_steps" st.accepted;
    if st.rejected > 0 then
      Obs.count st.sctx.obs "engine.tran.rejected_steps" st.rejected;
    if st.wasted_iters > 0 then
      Obs.count st.sctx.obs "engine.newton.wasted_iters" st.wasted_iters;
    Obs.count st.sctx.obs "engine.tran.newton_iterations" st.total_iters
  end

let stepper_exceeded st what =
  Obs.count st.sctx.obs "engine.budget_exceeded" 1;
  raise
    (Sim_error
       ( Budget_exceeded,
         Printf.sprintf
           "%s at t=%.4g (%d newton iterations, %d steps accepted, %d rejected)"
           what st.t st.total_iters st.accepted st.rejected ))

let stepper_check_budget st =
  (match Cancel.get st.sctx.opts.cancel with
  | Some reason ->
    raise (Sim_error (Cancelled, Cancel.reason_to_string reason))
  | None -> ());
  let budget = st.sctx.opts.budget in
  (match budget.max_newton_iterations with
  | Some cap when st.total_iters >= cap ->
    stepper_exceeded st (Printf.sprintf "newton-iteration budget (%d) exhausted" cap)
  | Some _ | None -> ());
  (match budget.max_steps with
  | Some cap when st.accepted + st.rejected >= cap ->
    stepper_exceeded st (Printf.sprintf "transient-step budget (%d) exhausted" cap)
  | Some _ | None -> ());
  match st.deadline with
  | Some d when Obs.Clock.now () > d ->
    stepper_exceeded st
      (Printf.sprintf "wall-clock budget (%g s) exhausted"
         (Option.get budget.deadline_seconds))
  | Some _ | None -> ()

(* One iteration of the adaptive loop: check the budget, drain every
   breakpoint at or behind [t] (several source edges can pile up inside
   one accepted step), propose a step clipped to the first future
   breakpoint and to tstop, solve, accept or reject.  Raises [Sim_error]
   on budget trips and step underflow exactly as the inline loop did. *)
let stepper_step st =
  let ctx = st.sctx in
  let opts = ctx.opts in
  let eps = st.eps and tstop = st.tstop in
  stepper_check_budget st;
  let h_try =
    while (match st.bps with bp :: _ -> bp <= st.t +. eps | [] -> false) do
      st.bps <- List.tl st.bps
    done;
    let clip = Float.min st.h (tstop -. st.t) in
    match st.bps with
    | bp :: _ when bp -. st.t < clip -. eps -> bp -. st.t
    | _ -> clip
  in
  let to_edge =
    match st.bps with bp :: _ -> bp <= st.t +. h_try +. eps | [] -> false
  in
  let mode = Tran { h = h_try; time = st.t +. h_try; vnode_prev = st.vnode_prev } in
  (* The sources can jump across a step that starts at t = 0 (a UIC
     start is zeros plus capacitor ICs) or that starts or ends on a
     breakpoint (an ideal PULSE edge takes its new value on the
     breakpoint, a PWL step just after it).  The dv clamp walks a jump
     at about 1 V per iteration and halving the step does not shrink
     it, so these steps get the DC limit.  Every other step gets the
     transient one. *)
  let max_iter = if st.at_edge || to_edge then opts.max_iter else tran_max_iter in
  match newton ~into:st.spare ~max_iter ~gmin:opts.gmin ~mode ctx st.v with
  | Ok (v', iters) ->
    st.total_iters <- st.total_iters + iters;
    st.accepted <- st.accepted + 1;
    update_device_states ~opts ~h:h_try ctx.devices v';
    Array.blit v' 0 st.vnode_prev 0 ctx.size;
    st.spare <- st.v;
    st.v <- v';
    st.t <- st.t +. h_try;
    st.at_edge <- to_edge;
    st.samples <- (st.t, recorded st.record v') :: st.samples;
    if iters <= 8 then st.h <- Float.min (st.h *. 1.5) st.hmax
  | Error (why, iters) ->
    (* Rejected solves count against the iteration budget: the work was
       spent even though no step was accepted. *)
    st.total_iters <- st.total_iters + iters;
    st.wasted_iters <- st.wasted_iters + iters;
    st.rejected <- st.rejected + 1;
    st.h <- h_try /. 2.0;
    if st.h < st.hmin then begin
      let err, where =
        match why with
        | `Singular row ->
          (Singular_matrix, Printf.sprintf " (singular at unknown %s)" (unknown_label ctx row))
        | `No_conv -> (Tran_step_underflow, "")
      in
      raise
        (Sim_error
           ( err,
             Printf.sprintf "transient stalled at t=%.4g (step %.3g)%s" st.t st.h where ))
    end

(* Interpolated value of the recorded unknown (a probed run's samples
   hold only it, at index 0) at time [tau], replicating
   {!Waveform.value_at}'s bracketing and clamping on the reversed sample
   list - a checkpoint probe must see the same float the resampled
   waveform would hold at a grid point. *)
let stepper_value st tau =
  match st.samples with
  | [] -> assert false (* stepper_start always records the t=0 sample *)
  | (tn, vn) :: older ->
    if tau >= tn then vn.(0)
    else begin
      let rec bracket t1 v1 = function
        | [] -> v1.(0) (* unreachable: tau >= 0 and the t=0 sample is last *)
        | (t0, v0) :: older ->
          if t0 <= tau then
            if tau <= t0 then v0.(0)
            else if t1 <= t0 then v1.(0)
            else v0.(0) +. ((v1.(0) -. v0.(0)) *. (tau -. t0) /. (t1 -. t0))
          else bracket t0 v0 older
      in
      bracket tn vn older
    end

(* See Session.probe. *)
type probe = {
  observe : string;
  grid : float array;
  feed : int -> float -> [ `Continue | `Stop ];
}

(* Raises [Not_found] for an unknown signal, as {!Waveform.samples}
   does, so a caller classifies an unknown observed node the same way
   whether it looks the node up in a waveform or probes a run. *)
let signal_index names observe =
  let rec find i =
    if i >= Array.length names then raise Not_found
    else if String.equal names.(i) observe then i
    else find (i + 1)
  in
  find 0

(* Run to tstop, or until the probe stops it; either way the waveform
   holds every accepted sample, of every signal in an unprobed run and of
   the observed one alone in a probed run.  Probing reads the stepper and
   never steers it, so an unstopped probed run takes the unprobed run's
   steps.  [tally] receives the run's Newton iterations, also when the
   run fails. *)
let transient_core ?probe ctx ~tally ~tstep ~tstop ~uic =
  let record = match probe with Some p -> signal_index ctx.names p.observe | None -> -1 in
  let st = stepper_start ~record ctx ~tstep ~tstop ~uic in
  Fun.protect ~finally:(fun () ->
      stepper_emit_counters st;
      tally st.total_iters)
  @@ fun () ->
  let advance_to tau =
    while (not (stepper_done st)) && st.t < tau do
      stepper_step st
    done
  in
  let stopped =
    match probe with
    | None -> false
    | Some { grid; feed; _ } ->
      let rec walk i =
        i < Array.length grid
        && begin
          advance_to grid.(i);
          match feed i (stepper_value st grid.(i)) with
          | `Stop -> true
          | `Continue -> walk (i + 1)
        end
      in
      walk 0
  in
  if not stopped then advance_to Float.infinity;
  let names = match probe with Some p -> [| p.observe |] | None -> ctx.names in
  (Waveform.make ~names ~samples:(List.rev st.samples), stepper_stats st)

(* --- Sessions: batch solving of one circuit topology ------------------ *)

(* One fault differs from the nominal circuit by a device or two, so the
   batch loop keeps the node map, the compiled device array, its stamp
   plan and the solver buffers alive across the whole fault list, and a
   fault arrives as a delta ([Netlist.Circuit.delta]) that is compiled
   onto them.  The buffers reserve two overlay rows - fault injection
   adds at most one node (a split-net open) and one branch (a bridge
   modelled as a 0 V source) - so a patched system solves in the same
   storage.  Sessions are single-threaded; parallel callers create one
   session per domain. *)
module Session = struct
  (* Reserve: one overlay node row at [base_size], one overlay branch row
     at [base_size + 1]. *)
  let reserve = 2

  (* A compiled view of the session's circuit: the base, or a patch of
     it, reified as a value so a caller can compile a whole chunk of
     patches, prime their union pattern, and only then solve them. *)
  type patch = {
    pv_devices : cdev array;
    pv_plan : plan;
    pv_size : int;
    pv_names : string array;
  }

  type nonrec probe = probe = {
    observe : string;
    grid : float array;
    feed : int -> float -> [ `Continue | `Stop ];
  }

  type t = {
    opts : options;
    obs : Obs.sink;
    circuit : Netlist.Circuit.t;
    index : Netlist.Circuit.index Lazy.t;
    mna : Mna.t;
    base : patch;
    base_size : int;
    base_node_count : int;
    (* Where each base device's matrix keys and RHS rows start in the
       base plan (one entry past the last device too), so a patch copies
       the ranges between the devices it replaces. *)
    key_offset : int array;
    rhs_offset : int array;
    (* The solver spans the base system plus the overlay reserve; every
       fault patch stamps into the same accumulated pattern, so the whole
       fault list shares one symbolic analysis. *)
    sv : Sparse.t;
    ev : Mosfet.scratch;
    (* Active view, swapped by [with_patch]. *)
    mutable view : patch;
    mutable newton_iterations : int;
  }

  let offsets entries devices =
    let o = Array.make (Array.length devices + 1) 0 in
    Array.iteri (fun i d -> o.(i + 1) <- o.(i) + entries d) devices;
    o

  let create ?(options = default_options) ?(obs = Obs.null) circuit =
    let mna = Mna.make circuit in
    let base_size = Mna.size mna in
    let base_node_count = Mna.node_count mna in
    let sv = Sparse.create ~capacity:(base_size + reserve) in
    let devices = compile mna circuit in
    let base =
      {
        pv_devices = devices;
        (* Every node row is pinned to ground by gmin (and cmin in a
           transient); a patch pins its overlay node row too. *)
        pv_plan = make_plan sv devices ~pins:(Array.init base_node_count Fun.id);
        pv_size = base_size;
        pv_names = output_names mna;
      }
    in
    {
      opts = options;
      obs;
      circuit;
      index = lazy (Netlist.Circuit.index circuit);
      mna;
      base;
      base_size;
      base_node_count;
      key_offset = offsets matrix_entries devices;
      rhs_offset = offsets rhs_entries devices;
      sv;
      ev = Mosfet.make_scratch ();
      view = base;
      newton_iterations = 0;
    }

  let circuit s = s.circuit

  let index s = Lazy.force s.index

  let options s = s.opts

  let ctx ?options s =
    let pv = s.view in
    {
      opts = Option.value ~default:s.opts options;
      sv = s.sv;
      size = pv.pv_size;
      devices = pv.pv_devices;
      plan = pv.pv_plan;
      ev = s.ev;
      obs = s.obs;
      names = pv.pv_names;
    }

  (* [?options] overrides the session's solver options for this one
     analysis (the buffers depend only on the topology, never on the
     options); retry ladders use it to re-attempt a fault with relaxed
     tolerances without rebuilding the session. *)
  let solve_dc ?options s = { mna = s.mna; v = dc_solve (ctx ?options s) }

  let transient ?options ?probe s ~tstep ~tstop ~uic =
    transient_core ?probe (ctx ?options s)
      ~tally:(fun n -> s.newton_iterations <- s.newton_iterations + n)
      ~tstep ~tstop ~uic

  let newton_iterations s = s.newton_iterations

  (* Compile only what [delta] changes.  A replaced device keeps its
     stamp position and layout, and appended devices go after the base
     devices, so the patch's plan is the base plan with the replaced
     devices' entries rewritten in place and the appended ones (and an
     overlay pin) inserted before the pins - exactly the plan of the
     materialised circuit.  Only those entries are the patch's own; the
     rest share the base plan's keys and slots.  A delta that names a
     second new node or branch, or whose replacement changes a device's
     stamp layout, raises Patch_overflow, and the caller opens a session
     on the materialised circuit instead. *)
  let patch s (delta : Netlist.Circuit.delta) =
    (* Overlay rows are allocated in order of first use, so a patch that
       adds only a node (break/split) or only a branch (bridging V
       source) costs exactly one extra row - the same system size a full
       rebuild would produce. *)
    let extra_node = ref None and extra_branch = ref None in
    let next_row = ref s.base_size in
    let alloc_row () =
      let row = !next_row in
      incr next_row;
      row
    in
    let nid name =
      match Mna.node_id s.mna name with
      | i -> i
      | exception Not_found -> begin
        match !extra_node with
        | Some (n, row) when String.equal n name -> row
        | Some _ -> raise (Patch_overflow ("second new node " ^ name))
        | None ->
          let row = alloc_row () in
          extra_node := Some (name, row);
          row
      end
    in
    let bid name =
      match Mna.branch_id s.mna name with
      | i -> i
      | exception Not_found -> begin
        match !extra_branch with
        | Some (n, row) when String.equal n name -> row
        | Some _ -> raise (Patch_overflow ("second new branch " ^ name))
        | None ->
          let row = alloc_row () in
          extra_branch := Some (name, row);
          row
      end
    in
    let base = s.base and ko = s.key_offset and ro = s.rhs_offset in
    let ndev = Array.length base.pv_devices in
    let replaced, added =
      match
        let replaced =
          List.map (fun (p, d) -> (p, compile_device ~nid ~bid d)) delta.replaced
        in
        ignore
          (List.fold_left
             (fun last (p, cd) ->
               if p <= last || p >= ndev then
                 invalid_arg "Session.patch: replaced positions must ascend within the base";
               if matrix_entries cd <> ko.(p + 1) - ko.(p) || rhs_entries cd <> ro.(p + 1) - ro.(p)
               then raise (Patch_overflow "a replacement changes the stamp layout");
               p)
             (-1) replaced);
        (replaced, List.map (compile_device ~nid ~bid) delta.added)
      with
      | compiled -> compiled
      | exception Patch_overflow msg ->
        (* The caller pays a session of its own for this patch. *)
        Obs.count s.obs "session.patch_overflow" 1;
        raise (Patch_overflow msg)
    in
    if Obs.enabled s.obs then begin
      Obs.count s.obs "session.patch" 1;
      Obs.sample s.obs "session.overlay_rows"
        (float_of_int (!next_row - s.base_size))
    end;
    let devices = Array.append base.pv_devices (Array.of_list added) in
    List.iter (fun (p, cd) -> devices.(p) <- cd) replaced;
    let sum f = List.fold_left (fun n cd -> n + f cd) 0 in
    let appended = sum matrix_entries added in
    let rhs = Array.append base.pv_plan.rhs (Array.make (sum rhs_entries added) 0) in
    let n_own =
      sum matrix_entries (List.map snd replaced) + appended
      + Option.fold ~none:0 ~some:(fun _ -> 1) !extra_node
    in
    let own_keys = Array.make n_own 0 and own = Array.make n_own 0 in
    let nk = ref 0 in
    (* The device's keys go to [own_keys], at plan positions from [km]. *)
    let emit km kr cd =
      let first = !nk in
      emit_device s.sv own_keys nk rhs (ref kr) cd;
      for i = first to !nk - 1 do
        own.(i) <- km + i - first
      done
    in
    List.iter (fun (p, cd) -> emit ko.(p) ro.(p) cd) replaced;
    ignore
      (List.fold_left
         (fun (km, kr) cd ->
           emit km kr cd;
           (km + matrix_entries cd, kr + rhs_entries cd))
         (ko.(ndev), ro.(ndev)) added);
    Option.iter
      (fun (_, row) ->
        own_keys.(!nk) <- pin_key s.sv row;
        own.(!nk) <- ko.(ndev) + appended + s.base_node_count)
      !extra_node;
    (* Shared: the base devices' entries around the replaced ones, then
       the base pins, after the appended devices. *)
    let copied, next =
      List.fold_left
        (fun (acc, from) (p, _) -> ((from, from, ko.(p) - from) :: acc, ko.(p + 1)))
        ([], 0) replaced
    in
    let copied =
      List.rev
        ((ko.(ndev) + appended, ko.(ndev), s.base_node_count)
        :: (next, next, ko.(ndev) - next)
        :: copied)
    in
    let pins =
      match !extra_node with
      | None -> base.pv_plan.pins
      | Some (_, row) -> Array.append base.pv_plan.pins [| row |]
    in
    let extra_names =
      (match !extra_node with None -> [] | Some (n, row) -> [ (row, n) ])
      @ (match !extra_branch with None -> [] | Some (b, row) -> [ (row, "I(" ^ b ^ ")") ])
      |> List.sort compare |> List.map snd
    in
    {
      pv_devices = devices;
      pv_plan =
        { targets = Sparse.derive base.pv_plan.targets ~copied ~own own_keys; rhs; pins };
      pv_size = !next_row;
      pv_names =
        (if extra_names = [] then base.pv_names
         else Array.append base.pv_names (Array.of_list extra_names));
    }

  (* Transient stamps are a superset of DC stamps, so priming the
     transient targets covers every solve that follows.  A patch's
     targets derive from the base plan's, so once the base's keys are in
     the pattern each patch reserves only its own.  The first prime fixes
     the column order over the base pattern, so no chunk reorders. *)
  let prime s patches =
    Sparse.order s.sv ~n:s.base_size s.base.pv_plan.targets;
    Sparse.prime s.sv (List.map (fun pv -> (pv.pv_size, pv.pv_plan.targets)) patches)

  let with_patch s pv f =
    s.view <- pv;
    Fun.protect ~finally:(fun () -> s.view <- s.base) (fun () -> f s)
end

(* --- DC transfer sweep ------------------------------------------------ *)

(* Each point re-solves the operating point with the swept source pinned
   to the next value, warm-starting Newton from the previous solution -
   the standard continuation that keeps multi-stable circuits on one
   branch.  The sweep is a natural session batch: each point is a delta
   replacing the swept source's wave, so the node map and solver buffers
   are shared across the whole sweep. *)
let dc_sweep_impl ~options ~obs circuit ~source ~values =
  let pos, dev =
    match Netlist.Circuit.lookup (Netlist.Circuit.index circuit) source with
    | Some ((_, (Netlist.Device.V _ | Netlist.Device.I _)) as found) -> found
    | Some _ | None ->
      invalid_arg ("Engine.dc_sweep: no independent source named " ^ source)
  in
  let at value =
    let wave = Netlist.Wave.Dc value in
    let dev =
      match dev with
      | Netlist.Device.V v -> Netlist.Device.V { v with wave }
      | Netlist.Device.I i -> Netlist.Device.I { i with wave }
      | Netlist.Device.R _ | Netlist.Device.C _ | Netlist.Device.L _
      | Netlist.Device.D _ | Netlist.Device.M _ ->
        assert false
    in
    { Netlist.Circuit.replaced = [ (pos, dev) ]; added = [] }
  in
  let session = Session.create ~options ~obs circuit in
  let prev = ref None in
  List.map
    (fun value ->
      Session.with_patch session (Session.patch session (at value)) (fun s ->
          let ctx = Session.ctx s in
          let v =
            let warm =
              match !prev with
              | Some v0 when Array.length v0 = ctx.size ->
                newton ~max_iter:options.max_iter ~gmin:options.gmin
                  ~mode:(Dc { scale = 1.0 }) ctx v0
              | Some _ | None -> Error (`No_conv, 0)
            in
            match warm with Ok (v, _) -> v | Error _ -> dc_solve ctx
          in
          prev := Some v;
          (value, { mna = s.Session.mna; v })))
    values

(* --- Internals for the test suite ------------------------------------- *)

module Private = struct
  type assembly = {
    names : string array;
    cells : (int * int * float) list;
    rhs : float array;
    solution : (float array, int) result;
  }

  let unknowns s = (Session.ctx s).names

  let plan s =
    let p = (Session.ctx s).plan in
    (Sparse.all_keys p.targets, p.rhs, p.pins)

  let assemble s ~mode ~prev v =
    let ctx = Session.ctx s in
    init_device_states ctx.devices prev;
    let mode =
      match mode with
      | `Dc scale -> Dc { scale }
      | `Tran (h, time) -> Tran { h; time; vnode_prev = prev }
    in
    stamp ~gmin:ctx.opts.gmin ~mode ctx v;
    let cells = ref [] in
    for i = ctx.size - 1 downto 0 do
      for j = ctx.size - 1 downto 0 do
        match Sparse.get ctx.sv i j with
        | Some x -> cells := (i, j, x) :: !cells
        | None -> ()
      done
    done;
    let rhs = Array.sub (Sparse.rhs ctx.sv) 0 ctx.size in
    let solution =
      match Sparse.factor_solve ctx.sv with
      | () -> Ok (Array.sub (Sparse.rhs ctx.sv) 0 ctx.size)
      | exception Sparse.Singular row -> Error row
    in
    { names = ctx.names; cells = !cells; rhs; solution }
end

(* --- The unified analysis entry point --------------------------------- *)

module Analysis = struct
  type t =
    | Op
    | Tran of { tstep : float; tstop : float; uic : bool }
    | Dc_sweep of { source : string; values : float list }

  type result =
    | Op_result of solution
    | Tran_result of Waveform.t * stats
    | Sweep_result of (float * solution) list

  let kind = function
    | Op -> "op"
    | Tran _ -> "tran"
    | Dc_sweep _ -> "dc_sweep"

  let mismatch want = function
    | Op_result _ -> invalid_arg ("Engine.Analysis: op result, wanted " ^ want)
    | Tran_result _ -> invalid_arg ("Engine.Analysis: tran result, wanted " ^ want)
    | Sweep_result _ -> invalid_arg ("Engine.Analysis: sweep result, wanted " ^ want)

  let solution = function Op_result s -> s | r -> mismatch "solution" r

  let waveform = function Tran_result (wf, _) -> wf | r -> mismatch "waveform" r

  let stats = function Tran_result (_, st) -> st | r -> mismatch "stats" r

  let sweep = function Sweep_result pts -> pts | r -> mismatch "sweep" r
end

(* Op and Tran run on a fresh session, so every analysis - one-shot, a
   campaign's nominal, each fault - builds its solver context in
   [Session.create]. *)
let run ?(options = default_options) ?(obs = Obs.null) circuit analysis =
  Obs.span obs "engine.analysis"
    ~attrs:[ ("kind", Obs.Str (Analysis.kind analysis)) ]
    (fun _ ->
      match analysis with
      | Analysis.Op ->
        Analysis.Op_result (Session.solve_dc (Session.create ~options ~obs circuit))
      | Analysis.Tran { tstep; tstop; uic } ->
        let wf, stats =
          Session.transient (Session.create ~options ~obs circuit) ~tstep ~tstop ~uic
        in
        Analysis.Tran_result (wf, stats)
      | Analysis.Dc_sweep { source; values } ->
        Analysis.Sweep_result (dc_sweep_impl ~options ~obs circuit ~source ~values))
