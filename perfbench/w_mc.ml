(* mc-fleet: Sched.Montecarlo.run with the default (batch-lane)
   policies on the onoff model.  The search core is bypassed: Batch
   takes most of the time, Stoch/Loads generation and compile the rest.
   A pass is [estimates] fleet estimates of [samples] traces each, with
   root seeds split from the workload seed; every pass reruns the same
   estimates, which must come back bit-identical. *)

let disc = Dkibam.Discretization.paper_b1
let estimates = 8
let samples = 1024
let slots = 40
let model = Sched.Montecarlo.Onoff (Stoch.Onoff.make ~slots ())
let n_policies = List.length Sched.Montecarlo.default_policies

let setup ~seed =
  Array.init estimates (fun i -> Prng.Splitmix.split (Int64.of_int (seed + 2_000_003)) i)

let estimate root = Sched.Montecarlo.run ~n_batteries:2 ~seed:root ~samples model disc

(* Bit-level fingerprint of an estimate: Marshal keeps float bits. *)
let digest (m : Sched.Montecarlo.t) = Digest.to_hex (Digest.string (Marshal.to_string m []))

type pass = { wall : float; lat : float array; digests : string array; words : float }

(* Every pass starts from a collected heap, untimed, so the garbage of
   one pass (which depends on the seed) does not land on the next. *)
let run_pass roots =
  Gc.full_major ();
  let lat = Array.make (Array.length roots) 0.0 and words = ref 0.0 in
  let t0 = Tr.now_ns () in
  let digests =
    Tr.span "pass" (fun () ->
        Array.mapi
          (fun i root ->
            let m =
              Tr.span "Sched.Montecarlo.run" (fun () ->
                  let w0 = Gc.minor_words () in
                  let s = Tr.now_ns () in
                  let m = estimate root in
                  lat.(i) <- Tr.secs_since s;
                  words := !words +. (Gc.minor_words () -. w0);
                  m)
            in
            digest m)
          roots)
  in
  { wall = Tr.secs_since t0; lat; digests; words = !words }

let traces_per_pass = float_of_int (estimates * samples * n_policies)

let check res (ps : pass list) =
  let first = List.hd ps in
  List.iter
    (fun p ->
      Array.iteri
        (fun i d ->
          Res.op res (d = first.digests.(i))
            (Printf.sprintf "mc: estimate %d is not bit-identical on rerun" i))
        p.digests)
    ps

let counters res (ps : pass list) =
  let later = match ps with _ :: (_ :: _ as r) -> r | _ -> ps in
  Res.counter res "mc.minor_words_per_trace"
    (List.map (fun p -> p.words /. traces_per_pass) later)

let e2e res (ps : pass list) =
  let walls = Array.of_list (List.map (fun p -> p.wall) ps) in
  let lat = Array.concat (List.map (fun p -> p.lat) ps) in
  Res.metric res "pass_s" "s" (Tr.median walls);
  Res.metric res "op_p50_ms" "ms" (Tr.median lat *. 1e3);
  let tail, pct = Tr.median_tail (Array.of_list (List.map (fun p -> p.lat) ps)) in
  Res.metric res "op_tail_ms" "ms" (tail *. 1e3);
  Res.info res "op"
    (Obs.Json.String
       (Printf.sprintf "one Sched.Montecarlo.run of %d samples x %d policies" samples
          n_policies));
  Res.info res "samples" (Obs.Json.Int (Array.length lat));
  Res.info res "tail_percentile" (Obs.Json.Float pct);
  Res.info res "pass_walls_s" (Obs.Json.List (List.map (fun p -> Obs.Json.Float p.wall) ps));
  Res.info res "mc_traces_per_s" (Obs.Json.Float (traces_per_pass /. Tr.median walls))

(* ---------------------------------------------------------------- *)
(* Layer replays on the first estimate's first block of traces       *)

let replay_block = 512

let layers res ~batch_steps roots (ps : pass list) =
  let f = float_of_int in
  let root = roots.(0) in
  let seeds = Array.init replay_block (fun k -> Prng.Splitmix.split root k) in
  let per_item n g = Tr.per_item_ns ~min_s:0.05 n g /. 1e3 in
  let epochs = Array.map (fun seed -> Sched.Montecarlo.sample_load model ~seed) seeds in
  let sample_us =
    per_item replay_block (fun () ->
        let t = Tr.now_ns () in
        Array.iter (fun seed -> ignore (Sys.opaque_identity (Sched.Montecarlo.sample_load model ~seed))) seeds;
        Tr.now_ns () - t)
  in
  let make e =
    Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
      ~charge_unit:disc.Dkibam.Discretization.charge_unit e
  in
  let arrays = Array.map make epochs in
  let make_us =
    per_item replay_block (fun () ->
        let t = Tr.now_ns () in
        Array.iter (fun e -> ignore (Sys.opaque_identity (make e))) epochs;
        Tr.now_ns () - t)
  in
  let compile a = Loads.Cursor.compile_exn (Loads.Cursor.make a) in
  let compiled = Array.map compile arrays in
  let compile_us =
    per_item replay_block (fun () ->
        let t = Tr.now_ns () in
        Array.iter (fun a -> ignore (Sys.opaque_identity (compile a))) arrays;
        Tr.now_ns () - t)
  in
  let lanes =
    Array.concat
      (List.map
         (fun pol -> Array.init replay_block (fun load -> { Batch.Engine.load; policy = pol }))
         [ Batch.Engine.Sequential; Batch.Engine.Round_robin; Batch.Engine.Best_of ])
  in
  let engine () = Batch.Engine.run ~n_batteries:2 disc ~loads:compiled ~lanes in
  ignore (engine ());
  let w0 = Gc.minor_words () in
  let st = engine () in
  let words = Gc.minor_words () -. w0 in
  let steps = Batch.State.steps st in
  let reps = ref 0 and timed = ref 0 in
  while f !timed *. 1e-9 < 0.2 do
    let t = Tr.now_ns () in
    ignore (Sys.opaque_identity (engine ()));
    timed := !timed + (Tr.now_ns () - t);
    incr reps
  done;
  let engine_s = f !timed *. 1e-9 /. f !reps in
  Res.metric res "batch.steps" "count" batch_steps;
  Res.metric res "batch.steps_per_s" "1/s" (f steps /. engine_s);
  Res.metric res "batch.minor_words_per_step" "words" (words /. f steps);
  Res.metric res "stoch.sample_us" "us" sample_us;
  Res.metric res "loads.arrays_make_us" "us" make_us;
  Res.metric res "loads.cursor_compile_us" "us" compile_us;
  (* what the replayed unit costs do not explain, per estimate: the
     reduction and the rest of Montecarlo.run ("unit cost x count" remainder) *)
  let lat = Tr.median (Array.concat (List.map (fun p -> p.lat) ps)) in
  let explained =
    (f samples *. (sample_us +. make_us +. compile_us) *. 1e-6)
    +. (engine_s *. f samples /. f replay_block)
  in
  Res.metric res "montecarlo.reduce_ms" "ms" ((lat -. explained) *. 1e3);
  let last = List.nth ps (List.length ps - 1) in
  Res.metric res "mc.minor_words_per_trace" "words" (last.words /. traces_per_pass);
  (* kernel unit costs on battery states from simulated fleet traces *)
  let cells = ref [] in
  Array.iteri
    (fun k a ->
      if k < 8 then begin
        let cursor = Loads.Cursor.make a in
        let o =
          Sched.Simulator.simulate ~trace_every:7 ~n_batteries:2 ~policy:Sched.Policy.Best_of
            disc a
        in
        List.iter
          (fun (s : Sched.Simulator.sample) ->
            let y = ref 0 in
            while !y < Loads.Cursor.epoch_count cursor - 1 && Loads.Cursor.epoch_end cursor !y <= s.s_step do
              incr y
            done;
            let sch = Loads.Cursor.schedule cursor !y in
            Array.iter
              (fun (b : Dkibam.Battery.t) ->
                cells := (b.n_gamma, b.m_delta, b.recov_clock, max 1 sch.ct, sch.cur) :: !cells)
              s.s_batteries)
          o.Sched.Simulator.samples
      end)
    arrays;
  W_exact.time_kernel res (Array.of_list !cells)

(* Battery steps the engine runs in one pass, from the library's own
   Obs counter, read on the warm-up pass so no timed pass pays for it. *)
let warm_up roots =
  Obs.reset ();
  Obs.enable ();
  ignore (run_pass roots : pass);
  let steps = Obs.counter_value (Obs.snapshot ()) "batch.steps" in
  Obs.disable ();
  float_of_int steps

let run ~seed ~seconds ~trace res =
  let roots = setup ~seed in
  let batch_steps = warm_up roots in
  Res.counter res "batch.steps" [ batch_steps ];
  let plain, traced = Tr.passes ~seconds ~trace (fun () -> run_pass roots) in
  check res (plain @ traced);
  counters res (plain @ traced);
  if trace then begin
    Res.overhead res (List.map (fun p -> p.wall) plain) (List.map (fun p -> p.wall) traced);
    layers res ~batch_steps roots traced
  end
  else e2e res plain;
  Res.metric res "peak_rss_mb" "MB" (Tr.vm_hwm_mb None)
