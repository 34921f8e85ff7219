type scratch = float array

let vgs = 0

let vds = 1

let ids = 2

let gm = 3

let gds = 4

let make_scratch () = Array.make 5 0.0

(* Shichman-Hodges for an NMOS with vds >= 0, written to the output
   slots.  Inlined into [eval], so its float arguments stay unboxed. *)
let[@inline] core s ~beta ~vto ~lambda ~vgs:vg ~vds:vd =
  let vov = vg -. vto in
  if vov <= 0.0 then begin
    s.(ids) <- 0.0;
    s.(gm) <- 0.0;
    s.(gds) <- 0.0
  end
  else if vd < vov then begin
    let cm = 1.0 +. (lambda *. vd) in
    let shape = (vov *. vd) -. (0.5 *. vd *. vd) in
    s.(ids) <- beta *. shape *. cm;
    s.(gm) <- beta *. vd *. cm;
    s.(gds) <- (beta *. (vov -. vd) *. cm) +. (beta *. shape *. lambda)
  end
  else begin
    let cm = 1.0 +. (lambda *. vd) in
    let half = 0.5 *. beta *. vov *. vov in
    s.(ids) <- half *. cm;
    s.(gm) <- beta *. vov *. cm;
    s.(gds) <- half *. lambda
  end

(* NMOS at arbitrary vds: for vds < 0 the physical source is the drawn
   drain; evaluate the mirrored device and map the partial derivatives
   back through ids(vgs,vds) = -f(vgs - vds, -vds). *)
let[@inline] eval_nmos s ~beta ~vto ~lambda ~vgs:vg ~vds:vd =
  if vd >= 0.0 then core s ~beta ~vto ~lambda ~vgs:vg ~vds:vd
  else begin
    core s ~beta ~vto ~lambda ~vgs:(vg -. vd) ~vds:(-.vd);
    let i = s.(ids) and g = s.(gm) and d = s.(gds) in
    s.(ids) <- -.i;
    s.(gm) <- -.g;
    s.(gds) <- g +. d
  end

let eval (model : Netlist.Device.mos_model) ~w ~l s =
  let beta = model.kp *. w /. l in
  let vg = s.(vgs) and vd = s.(vds) in
  match model.kind with
  | Netlist.Device.Nmos -> eval_nmos s ~beta ~vto:model.vto ~lambda:model.lambda ~vgs:vg ~vds:vd
  | Netlist.Device.Pmos ->
    (* ids_p(vgs,vds) = -f_n(-vgs,-vds) with the NMOS-equivalent
       threshold |vto|; gm/gds keep their sign through the double
       negation. *)
    eval_nmos s ~beta ~vto:(-.model.vto) ~lambda:model.lambda ~vgs:(-.vg) ~vds:(-.vd);
    s.(ids) <- -.s.(ids)

let region (model : Netlist.Device.mos_model) ~vgs ~vds =
  let vgs, vds =
    match model.kind with
    | Netlist.Device.Nmos -> (vgs, vds)
    | Netlist.Device.Pmos -> (-.vgs, -.vds)
  in
  let vto = match model.kind with Netlist.Device.Nmos -> model.vto | Netlist.Device.Pmos -> -.model.vto in
  let vgs, vds = if vds >= 0.0 then (vgs, vds) else (vgs -. vds, -.vds) in
  if vgs -. vto <= 0.0 then "off"
  else if vds < vgs -. vto then "linear"
  else "saturation"
