(* horizon-fleet: Sched.Simulator.simulate under Sched.Horizon.policy
   ~k:4 over a fleet of seeded generated loads.  The same search core as
   exact-table5, used differently: thousands of shallow windowed
   Optimal.plan calls with terminal Bound.lifetime_lb values and memo
   reuse across re-plans.  Every decision is timed from outside by
   wrapping the policy's Custom function. *)

let disc = Dkibam.Discretization.paper_b1

type load = { arr : Loads.Arrays.t; n_batteries : int }

(* Three in four loads are 3 x B1; every fourth is 2 x B1, where the
   exact optimum is tractable and bounds the planner's lifetime. *)
let fleet = 48
let jobs = 30

let setup ~seed =
  Array.init fleet (fun i ->
      let epochs =
        Loads.Random_load.intermitted
          ~seed:(Prng.Splitmix.split (Int64.of_int (seed + 1_000_003)) i)
          ~jobs ()
      in
      {
        arr =
          Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
            ~charge_unit:disc.Dkibam.Discretization.charge_unit epochs;
        n_batteries = (if i mod 4 = 0 then 2 else 3);
      })

type stats = {
  mutable lat : float list;  (* decision latencies, seconds *)
  mutable first : float list;  (* first decision of each simulation *)
  mutable decisions : int;
  mutable replans : int;
  mutable words : float;
  mutable ctxs : (Sched.Policy.decision_context * Loads.Cursor.t) list;
}

let new_stats () =
  { lat = []; first = []; decisions = 0; replans = 0; words = 0.0; ctxs = [] }

let inner =
  match Sched.Horizon.policy ~k:4 () with
  | Sched.Policy.Custom f -> f
  | _ -> assert false

type pass = {
  wall : float;
  lifetimes : int option array;
  st : stats;
}

(* Every pass starts from a collected heap, untimed, so the garbage of
   one pass (which depends on the seed) does not land on the next. *)
let run_pass loads =
  Gc.full_major ();
  let st = new_stats () in
  let t0 = Tr.now_ns () in
  let lifetimes =
    Tr.span "pass" (fun () ->
        Array.map
          (fun l ->
            let fresh = ref true in
            let decide (ctx : Sched.Policy.decision_context) =
              Tr.span "Sched.Horizon.policy" (fun () ->
                  let w0 = Gc.minor_words () in
                  let s = Tr.now_ns () in
                  let b = inner ctx in
                  let dt = Tr.secs_since s in
                  st.words <- st.words +. (Gc.minor_words () -. w0);
                  st.lat <- dt :: st.lat;
                  if !fresh then st.first <- dt :: st.first;
                  fresh := false;
                  st.decisions <- st.decisions + 1;
                  if ctx.mid_job then st.replans <- st.replans + 1;
                  (if !Tr.enabled then
                     match ctx.cursor with
                     | Some c -> st.ctxs <- (ctx, c) :: st.ctxs
                     | None -> ());
                  b)
            in
            Tr.span "Sched.Simulator.simulate" (fun () ->
                (Sched.Simulator.simulate ~n_batteries:l.n_batteries
                   ~policy:(Sched.Policy.Custom decide) disc l.arr)
                  .Sched.Simulator.lifetime_steps))
          loads)
  in
  { wall = Tr.secs_since t0; lifetimes; st }

let digest lifetimes =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (Array.to_list
             (Array.map (function None -> "alive" | Some s -> string_of_int s) lifetimes))))

let check res ~seed loads (ps : pass list) =
  let first = List.hd ps in
  let d = digest first.lifetimes in
  List.iter
    (fun p ->
      Res.op res (digest p.lifetimes = d) "horizon: fleet lifetimes changed between passes")
    ps;
  (match List.assoc_opt seed Pinned.horizon with
  | Some pinned ->
      Res.check res (d = pinned)
        (Printf.sprintf "horizon: lifetime digest differs from the pin for seed %d" seed)
  | None -> ());
  (* the planner never beats the exact optimum where it is tractable *)
  Array.iteri
    (fun i l ->
      if l.n_batteries = 2 then begin
        let opt = Sched.Optimal.search ~n_batteries:2 disc l.arr in
        Res.op res
          (match first.lifetimes.(i) with
          | Some s -> s <= opt.Sched.Optimal.lifetime_steps
          | None -> false)
          (Printf.sprintf "horizon: load %d outlives its exact optimum" i)
      end)
    loads

let counters res (ps : pass list) =
  Res.counter res "horizon.decisions" (List.map (fun p -> float_of_int p.st.decisions) ps);
  Res.counter res "horizon.replans" (List.map (fun p -> float_of_int p.st.replans) ps);
  let later = match ps with _ :: (_ :: _ as r) -> r | _ -> ps in
  Res.counter res "horizon.minor_words_per_decision"
    (List.map (fun p -> p.st.words /. float_of_int p.st.decisions) later)

let e2e res (ps : pass list) =
  let walls = Array.of_list (List.map (fun p -> p.wall) ps) in
  let lat = Array.of_list (List.concat_map (fun p -> p.st.lat) ps) in
  Res.metric res "pass_s" "s" (Tr.median walls);
  Res.metric res "op_p50_ms" "ms" (Tr.median lat *. 1e3);
  let tail, pct =
    Tr.median_tail (Array.of_list (List.map (fun p -> Array.of_list p.st.lat) ps))
  in
  Res.metric res "op_tail_ms" "ms" (tail *. 1e3);
  Res.info res "op" (Obs.Json.String "one Sched.Horizon decision (policy call)");
  Res.info res "samples" (Obs.Json.Int (Array.length lat));
  Res.info res "tail_percentile" (Obs.Json.Float pct);
  Res.info res "pass_walls_s" (Obs.Json.List (List.map (fun p -> Obs.Json.Float p.wall) ps));
  Res.info res "horizon_decision_p50_us" (Obs.Json.Float (Tr.median lat *. 1e6));
  Res.info res "horizon_decision_tail_us" (Obs.Json.Float (tail *. 1e6))

let layers res (ps : pass list) =
  let last = List.nth ps (List.length ps - 1) in
  let med g = Tr.median (Array.of_list (List.map g ps)) in
  let f = float_of_int in
  Res.metric res "horizon.decisions" "count" (f last.st.decisions);
  (* every decision is one Optimal.plan call *)
  Res.metric res "horizon.plans" "count" (f last.st.decisions);
  Res.metric res "horizon.replans" "count" (f last.st.replans);
  Res.metric res "horizon.first_decision_us" "us"
    (Tr.median (Array.of_list (List.concat_map (fun p -> p.st.first) ps)) *. 1e6);
  Res.metric res "horizon.minor_words_per_decision" "words"
    (last.st.words /. f last.st.decisions);
  Res.metric res "simulator.self_ms" "ms"
    (med (fun p -> (p.wall -. List.fold_left ( +. ) 0.0 p.st.lat) *. 1e3));
  W_exact.time_bound res
    (Array.of_list (List.map (fun (ctx, c) -> (c, ctx)) last.st.ctxs))

let run ~seed ~seconds ~trace res =
  let loads = setup ~seed in
  ignore (run_pass loads : pass);
  let plain, traced = Tr.passes ~seconds ~trace (fun () -> run_pass loads) in
  check res ~seed loads (plain @ traced);
  counters res (plain @ traced);
  if trace then begin
    Res.overhead res (List.map (fun p -> p.wall) plain) (List.map (fun p -> p.wall) traced);
    layers res traced
  end
  else e2e res plain;
  Res.metric res "peak_rss_mb" "MB" (Tr.vm_hwm_mb None)

let pin seeds =
  Printf.printf "\nlet horizon = [\n";
  List.iter
    (fun seed ->
      let p = run_pass (setup ~seed) in
      Printf.printf "  (%d, %S);\n" seed (digest p.lifetimes))
    seeds;
  Printf.printf "]\n"
