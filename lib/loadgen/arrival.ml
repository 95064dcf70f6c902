(* Seeded arrival-process generation.  Streams are materialized eagerly
   from a private splitmix64 generator, so they are pure functions of
   (seed, process, horizon) — no dependency on engine or domain state.
   Interarrival draws are clamped to >= 1 cycle, which both guarantees
   termination and keeps times strictly increasing. *)

type process =
  | Poisson of { rate : float }
  | Mmpp of {
      rate_on : float;
      rate_off : float;
      mean_on : float;
      mean_off : float;
    }
  | Diurnal of { rate_lo : float; rate_hi : float; period : float }

type shape = Poisson_shape | Mmpp_shape | Diurnal_shape

let clock_hz = 2.4e9

let name = function
  | Poisson _ -> "poisson"
  | Mmpp _ -> "mmpp"
  | Diurnal _ -> "diurnal"

let shape_name = function
  | Poisson_shape -> "poisson"
  | Mmpp_shape -> "mmpp"
  | Diurnal_shape -> "diurnal"

let shape_of_string = function
  | "poisson" -> Ok Poisson_shape
  | "mmpp" -> Ok Mmpp_shape
  | "diurnal" -> Ok Diurnal_shape
  | s -> Error (Printf.sprintf "unknown arrival process %S (poisson|mmpp|diurnal)" s)

let mean_rate = function
  | Poisson { rate } -> rate
  | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
      ((rate_on *. mean_on) +. (rate_off *. mean_off)) /. (mean_on +. mean_off)
  | Diurnal { rate_lo; rate_hi; period = _ } -> (rate_lo +. rate_hi) /. 2.

(* Canonical family shapes at a given mean offered rate: the burst duty
   cycle and ramp span are fixed so sweeps vary exactly one variable. *)
let shaped shape ~rate ~horizon =
  match shape with
  | Poisson_shape -> Poisson { rate }
  | Mmpp_shape ->
      (* equal 2 ms dwells at 1.8x / 0.2x the mean: the mix averages to
         [rate] while the ON bursts push the instantaneous load well past
         any capacity the mean alone would saturate *)
      let dwell = 2e-3 *. clock_hz in
      Mmpp
        {
          rate_on = 1.8 *. rate;
          rate_off = 0.2 *. rate;
          mean_on = dwell;
          mean_off = dwell;
        }
  | Diurnal_shape ->
      Diurnal
        { rate_lo = 0.4 *. rate; rate_hi = 1.6 *. rate; period = float_of_int horizon }

let validate p =
  let pos what v = if not (v > 0.) then invalid_arg ("Arrival.generate: " ^ what) in
  match p with
  | Poisson { rate } -> pos "rate must be > 0" rate
  | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
      pos "mean_on must be > 0" mean_on;
      pos "mean_off must be > 0" mean_off;
      if rate_on < 0. || rate_off < 0. || rate_on +. rate_off <= 0. then
        invalid_arg "Arrival.generate: MMPP rates must be >= 0 and not both 0"
  | Diurnal { rate_lo; rate_hi; period } ->
      pos "period must be > 0" period;
      pos "rate_hi must be > 0" rate_hi;
      if rate_lo < 0. || rate_lo > rate_hi then
        invalid_arg "Arrival.generate: need 0 <= rate_lo <= rate_hi"

(* Exponential interarrival draw in whole cycles, clamped to >= 1. *)
let exp_cycles rng ~mean =
  let u = Sim.Rng.float rng in
  let d = -.mean *. log (1. -. u) in
  if d >= 1. then int_of_float d else 1

let generate ~seed ~horizon p =
  validate p;
  if horizon <= 0 then [||]
  else begin
    let rng = Sim.Rng.create (seed lxor 0x6c078965) in
    let acc = ref [] in
    let push t = acc := t :: !acc in
    (match p with
    | Poisson { rate } ->
        let mean = clock_hz /. rate in
        let t = ref (exp_cycles rng ~mean) in
        while !t < horizon do
          push !t;
          t := !t + exp_cycles rng ~mean
        done
    | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
        let t = ref 0 and on = ref true in
        let dwell_end = ref (exp_cycles rng ~mean:mean_on) in
        let flip () =
          t := !dwell_end;
          on := not !on;
          dwell_end :=
            !t + exp_cycles rng ~mean:(if !on then mean_on else mean_off)
        in
        while !t < horizon do
          let rate = if !on then rate_on else rate_off in
          if rate <= 0. then flip ()
          else begin
            let dt = exp_cycles rng ~mean:(clock_hz /. rate) in
            if !t + dt < !dwell_end then begin
              t := !t + dt;
              if !t < horizon then push !t
            end
            else flip ()
          end
        done
    | Diurnal { rate_lo; rate_hi; period } ->
        (* thinning: candidates at the peak rate, each kept with
           probability rate(t) / rate_hi *)
        let mean = clock_hz /. rate_hi in
        let t = ref (exp_cycles rng ~mean) in
        while !t < horizon do
          let phase = Float.rem (float_of_int !t) period /. period in
          let r =
            rate_lo
            +. (rate_hi -. rate_lo)
               *. 0.5
               *. (1. -. cos (2. *. Float.pi *. phase))
          in
          if Sim.Rng.float rng *. rate_hi < r then push !t;
          t := !t + exp_cycles rng ~mean
        done);
    let arr = Array.of_list !acc in
    let n = Array.length arr in
    (* built newest-first: reverse in place *)
    for i = 0 to (n / 2) - 1 do
      let tmp = arr.(i) in
      arr.(i) <- arr.(n - 1 - i);
      arr.(n - 1 - i) <- tmp
    done;
    arr
  end
