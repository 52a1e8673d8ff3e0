(* exact-table5: serial exact search (bounds on, a cold private memo
   per solve) over the ten 2 x B1 Table 5 loads, then over a batch of
   seeded generated 2 x B1 intermitted loads.  The search core
   (Sched.Optimal, Sched.Bank, Sched.Bound, Dkibam) does nearly all the
   work; Batch, Stoch and Serve do none. *)

let disc = Dkibam.Discretization.paper_b1

type load = { label : string; arr : Loads.Arrays.t; table5 : bool }

(* Generated loads stay at 2 x B1 and idle 1 min: the search cost of a
   generated load is heavy-tailed, and these keep each solve in the
   0.3-10 ms range so the batch's total barely moves with the seed. *)
let generated = 32
let generated_jobs = 40

let setup ~seed =
  let table5 =
    List.map
      (fun name ->
        {
          label = Loads.Testloads.to_string name;
          arr = Batsched.Experiments.arrays_of name;
          table5 = true;
        })
      Loads.Testloads.all_names
  in
  let gen =
    List.init generated (fun i ->
        let epochs =
          Loads.Random_load.intermitted
            ~seed:(Prng.Splitmix.split (Int64.of_int seed) i)
            ~jobs:generated_jobs ()
        in
        {
          label = Printf.sprintf "gen%02d" i;
          arr =
            Loads.Arrays.make ~time_step:disc.Dkibam.Discretization.time_step
              ~charge_unit:disc.Dkibam.Discretization.charge_unit epochs;
          table5 = false;
        })
  in
  Array.of_list (table5 @ gen)

let solve l = Sched.Optimal.search ~bounds:true ~n_batteries:2 disc l.arr

let digest (r : Sched.Optimal.result) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d/%d/%s" r.lifetime_steps r.stranded_units
          (String.concat "," (Array.to_list (Array.map string_of_int r.schedule)))))

(* Digest of the generated batch's answers, pinned per seed. *)
let batch_digest gen_results =
  Digest.to_hex (Digest.string (String.concat ";" (List.map digest gen_results)))

let generated_results loads results =
  List.filteri (fun i _ -> not loads.(i).table5) (Array.to_list results)

type pass = {
  wall : float;
  times : float array;  (* per load, seconds *)
  results : Sched.Optimal.result array;
  search_words : float;
  major_gcs : int;
}

(* Every pass starts from a collected heap, untimed, so the garbage of
   one pass (which depends on the seed) does not land on the next. *)
let run_pass loads =
  Gc.full_major ();
  let n = Array.length loads in
  let times = Array.make n 0.0 and words = ref 0.0 in
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Tr.now_ns () in
  let results =
    Tr.span "pass" (fun () ->
        Array.mapi
          (fun i l ->
            Tr.span "Sched.Optimal.search" (fun () ->
                let w0 = Gc.minor_words () in
                let s = Tr.now_ns () in
                let r = solve l in
                times.(i) <- Tr.secs_since s;
                words := !words +. (Gc.minor_words () -. w0);
                r))
          loads)
  in
  let wall = Tr.secs_since t0 in
  {
    wall;
    times;
    results;
    search_words = !words;
    major_gcs = (Gc.quick_stat ()).Gc.major_collections - g0;
  }

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let check_pass res ~seed loads (p : pass) (first : pass option) =
  Array.iteri
    (fun i l ->
      let r = p.results.(i) in
      let ok =
        r.Sched.Optimal.status = Sched.Optimal.Optimal
        &&
        match first with
        | Some f -> digest f.results.(i) = digest r
        | None -> (
            if l.table5 then
              match List.assoc_opt l.label Pinned.table5 with
              | Some (life, stranded, d) ->
                  r.lifetime_steps = life && r.stranded_units = stranded
                  && digest r = d
              | None -> false
            else true)
      in
      Res.op res ok (Printf.sprintf "exact: %s answer differs from its pinned value" l.label))
    loads;
  if first = None then
    match List.assoc_opt seed Pinned.exact_generated with
    | Some d ->
        Res.check res (batch_digest (generated_results loads p.results) = d)
          (Printf.sprintf "exact: generated batch digest differs from the pin for seed %d" seed)
    | None -> ()

(* Each schedule replayed through the simulator with [Policy.Fixed]
   must reproduce its lifetime. *)
let check_replay res loads results =
  Array.iteri
    (fun i l ->
      let r = results.(i) in
      let o =
        Sched.Simulator.simulate ~n_batteries:2
          ~policy:(Sched.Policy.Fixed r.Sched.Optimal.schedule) disc l.arr
      in
      Res.op res
        (o.Sched.Simulator.lifetime_steps = Some r.Sched.Optimal.lifetime_steps)
        (Printf.sprintf "exact: %s schedule replay changes the lifetime" l.label))
    loads

let counters res (ps : pass list) =
  let per f = List.map f ps in
  let segs p = sum (fun r -> r.Sched.Optimal.stats.segments_run) p.results in
  Res.counter res "optimal.segments" (per (fun p -> float_of_int (segs p)));
  Res.counter res "optimal.positions"
    (per (fun p -> float_of_int (sum (fun r -> r.Sched.Optimal.stats.positions_explored) p.results)));
  Res.counter res "optimal.memo_hits"
    (per (fun p -> float_of_int (sum (fun r -> r.Sched.Optimal.stats.pruned) p.results)));
  Res.counter res "optimal.bound_cuts"
    (per (fun p -> float_of_int (sum (fun r -> r.Sched.Optimal.stats.bound_cuts) p.results)));
  (* the first pass also pays one-off allocations (lazy tables), so the
     per-segment ratio is taken from the later passes *)
  let later = match ps with _ :: (_ :: _ as rest) -> rest | _ -> ps in
  Res.counter res "optimal.minor_words_per_segment"
    (List.map (fun p -> p.search_words /. float_of_int (segs p)) later)

let e2e res loads (ps : pass list) =
  let walls = Array.of_list (List.map (fun p -> p.wall) ps) in
  Res.metric res "pass_s" "s" (Tr.median walls);
  (* per Table 5 load: its median solve time over the passes *)
  let per_load =
    Array.of_list
      (List.filter_map Fun.id
         (Array.to_list
            (Array.mapi
               (fun i l ->
                 if l.table5 then
                   Some (Tr.median (Array.of_list (List.map (fun p -> p.times.(i)) ps)) *. 1e3)
                 else None)
               loads)))
  in
  Res.metric res "op_p50_ms" "ms" (Tr.median per_load);
  let tail, pct = Tr.tail per_load in
  Res.metric res "op_tail_ms" "ms" tail;
  Res.info res "op" (Obs.Json.String "one Sched.Optimal.search of a Table 5 load (per-load median over passes)");
  Res.info res "tail_percentile" (Obs.Json.Float pct);
  Res.info res "pass_walls_s" (Obs.Json.List (List.map (fun p -> Obs.Json.Float p.wall) ps));
  Res.info res "exact_solve_s" (Obs.Json.Float (Tr.median walls))

(* ---------------------------------------------------------------- *)
(* Layer replays on inputs taken from the workload                   *)

(* Decision points along each optimal schedule: the simulator's context
   at every job start, with the battery the schedule chose there. *)
let decision_points loads results =
  let pts = ref [] in
  Array.iteri
    (fun i l ->
      let sch = results.(i).Sched.Optimal.schedule in
      let k = ref 0 in
      let cursor = Loads.Cursor.make l.arr in
      let decide (ctx : Sched.Policy.decision_context) =
        let b =
          if !k < Array.length sch && List.mem sch.(!k) ctx.alive then sch.(!k)
          else Sched.Policy.best_of ctx
        in
        incr k;
        if not ctx.mid_job then pts := (cursor, ctx, b) :: !pts;
        b
      in
      ignore
        (Sched.Simulator.simulate ~n_batteries:2 ~policy:(Sched.Policy.Custom decide)
           disc l.arr))
    loads;
  Array.of_list (List.rev !pts)

let bank_of (ctx : Sched.Policy.decision_context) =
  Sched.Bank.of_parts disc ~batteries:ctx.batteries
    ~dead:(Array.init (Array.length ctx.batteries) (fun i -> not (List.mem i ctx.alive)))

let replay_bank res pts =
  let banks = Array.map (fun (_, ctx, _) -> bank_of ctx) pts in
  let scheds =
    Array.map
      (fun (cursor, (ctx : Sched.Policy.decision_context), _) ->
        Loads.Cursor.schedule_from cursor ctx.epoch_index
          ~local:(ctx.step - Loads.Cursor.epoch_start cursor ctx.epoch_index))
      pts
  in
  let n = Array.length pts in
  let copy_ns =
    Tr.per_item_ns n (fun () ->
        let t = Tr.now_ns () in
        Array.iter (fun b -> ignore (Sched.Bank.copy b : Sched.Bank.t)) banks;
        Tr.now_ns () - t)
  in
  let serve_all copies =
    Array.iteri
      (fun i (_, _, b) -> ignore (Sched.Bank.serve copies.(i) ~b scheds.(i) : Sched.Bank.serve_outcome))
      pts
  in
  let serve_ns =
    Tr.per_item_ns n (fun () ->
        let copies = Array.map Sched.Bank.copy banks in
        let t = Tr.now_ns () in
        serve_all copies;
        Tr.now_ns () - t)
  in
  let copies = Array.map Sched.Bank.copy banks in
  let w0 = Gc.minor_words () in
  serve_all copies;
  let words = Gc.minor_words () -. w0 in
  Res.metric res "bank.copy_ns" "ns" copy_ns;
  Res.metric res "bank.serve_ns" "ns" serve_ns;
  Res.metric res "bank.minor_words_per_serve" "words" (words /. float_of_int n);
  (banks, scheds)

(* Kernel unit costs over battery cells [(n, m, clock, steps, cur)]
   taken from a workload: one [tick] of [steps] per cell, one [draw] of
   [cur] per cell that can serve it. *)
let time_kernel res cells =
  let tick_ns =
    Tr.per_item_ns (Array.length cells) (fun () ->
        let t = Tr.now_ns () in
        Array.iter
          (fun (_, m, clock, steps, _) ->
            ignore (Sys.opaque_identity (Dkibam.Kernel.tick disc ~m ~clock ~steps)))
          cells;
        Tr.now_ns () - t)
  in
  let drawable =
    Array.of_list
      (List.filter (fun (n, _, _, _, cur) -> cur > 0 && n >= cur) (Array.to_list cells))
  in
  let draw_ns =
    Tr.per_item_ns (Array.length drawable) (fun () ->
        let t = Tr.now_ns () in
        Array.iter
          (fun (n, m, clock, _, cur) ->
            ignore (Sys.opaque_identity (Dkibam.Kernel.draw disc ~n ~m ~clock ~cur)))
          drawable;
        Tr.now_ns () - t)
  in
  Res.metric res "kernel.tick_ns" "ns" tick_ns;
  Res.metric res "kernel.draw_ns" "ns" draw_ns

let replay_kernel res banks scheds =
  let cells = ref [] in
  Array.iteri
    (fun i bank ->
      let sch : Loads.Cursor.schedule = scheds.(i) in
      Array.iter
        (fun (b : Dkibam.Battery.t) ->
          cells := (b.n_gamma, b.m_delta, b.recov_clock, sch.ct, sch.cur) :: !cells)
        (Sched.Bank.snapshot bank))
    banks;
  time_kernel res (Array.of_list !cells)

(* Sched.Bound unit costs: [create] per distinct load cursor, and
   [lifetime_ub] + [lifetime_lb] at each decision point [(cursor, ctx)]. *)
let time_bound res points =
  let bounds = ref [] in
  Array.iter
    (fun (c, _) ->
      if not (List.mem_assq c !bounds) then bounds := (c, Sched.Bound.create disc c) :: !bounds)
    points;
  let create_us =
    Tr.median
      (Array.of_list
         (List.map
            (fun (c, _) ->
              Tr.per_item_ns ~min_s:0.005 1 (fun () ->
                  let t = Tr.now_ns () in
                  ignore (Sys.opaque_identity (Sched.Bound.create disc c));
                  Tr.now_ns () - t)
              /. 1e3)
            !bounds))
  in
  let qs =
    Array.map
      (fun (c, (ctx : Sched.Policy.decision_context)) ->
        ( List.assq c !bounds,
          ctx.epoch_index,
          ctx.step - Loads.Cursor.epoch_start c ctx.epoch_index,
          bank_of ctx ))
      points
  in
  let query_ns =
    Tr.per_item_ns (2 * Array.length qs) (fun () ->
        let t = Tr.now_ns () in
        Array.iter
          (fun (b, y, local, bank) ->
            ignore (Sys.opaque_identity (Sched.Bound.lifetime_ub b ~y ~local bank));
            ignore (Sys.opaque_identity (Sched.Bound.lifetime_lb b ~y ~local bank)))
          qs;
        Tr.now_ns () - t)
  in
  Res.metric res "bound.create_us" "us" create_us;
  Res.metric res "bound.query_ns" "ns" query_ns

let layers res loads (ps : pass list) =
  let last = List.nth ps (List.length ps - 1) in
  let segs p = sum (fun r -> r.Sched.Optimal.stats.segments_run) p.results in
  let f = float_of_int in
  Res.metric res "optimal.segments" "count" (f (segs last));
  Res.metric res "optimal.positions" "count"
    (f (sum (fun r -> r.Sched.Optimal.stats.positions_explored) last.results));
  Res.metric res "optimal.memo_hits" "count"
    (f (sum (fun r -> r.Sched.Optimal.stats.pruned) last.results));
  Res.metric res "optimal.bound_cuts" "count"
    (f (sum (fun r -> r.Sched.Optimal.stats.bound_cuts) last.results));
  let med g = Tr.median (Array.of_list (List.map g ps)) in
  Res.metric res "optimal.ns_per_segment" "ns"
    (med (fun p -> Array.fold_left ( +. ) 0.0 p.times *. 1e9 /. f (segs p)));
  Res.metric res "optimal.minor_words_per_segment" "words"
    (last.search_words /. f (segs last));
  Res.metric res "optimal.major_gcs" "count" (med (fun p -> f p.major_gcs));
  let time_of label =
    med (fun p ->
        let t = ref 0.0 in
        Array.iteri (fun i l -> if l.label = label then t := !t +. p.times.(i)) loads;
        !t)
  in
  Res.metric res "optimal.search_s.ILl250" "s" (time_of "ILl 250");
  Res.metric res "optimal.search_s.ILs250" "s" (time_of "ILs 250");
  Res.metric res "optimal.search_s.generated" "s"
    (med (fun p ->
         let t = ref 0.0 in
         Array.iteri (fun i l -> if not l.table5 then t := !t +. p.times.(i)) loads;
         !t));
  let pts = decision_points loads last.results in
  let banks, scheds = replay_bank res pts in
  replay_kernel res banks scheds;
  time_bound res (Array.map (fun (c, ctx, _) -> (c, ctx)) pts)

(* ---------------------------------------------------------------- *)

let run ~seed ~seconds ~trace res =
  let loads = setup ~seed in
  ignore (run_pass loads : pass) (* warm-up: lazy tables, page faults *);
  let plain, traced = Tr.passes ~seconds ~trace (fun () -> run_pass loads) in
  let all = plain @ traced in
  let first = List.hd all in
  List.iteri (fun i p -> check_pass res ~seed loads p (if i = 0 then None else Some first)) all;
  check_replay res loads first.results;
  counters res all;
  if trace then begin
    Res.overhead res (List.map (fun p -> p.wall) plain) (List.map (fun p -> p.wall) traced);
    layers res loads traced
  end
  else e2e res loads plain;
  Res.metric res "peak_rss_mb" "MB" (Tr.vm_hwm_mb None)

(* Pins for [Pinned]: the Table 5 answers and the generated-batch digest
   of each seed. *)
let pin seeds =
  let loads = setup ~seed:1 in
  Printf.printf "let table5 = [\n";
  Array.iter
    (fun l ->
      if l.table5 then begin
        let r = solve l in
        Printf.printf "  (%S, (%d, %d, %S));\n" l.label r.lifetime_steps r.stranded_units (digest r)
      end)
    loads;
  Printf.printf "]\n\nlet exact_generated = [\n";
  List.iter
    (fun seed ->
      let loads = setup ~seed in
      let gen = List.filter (fun l -> not l.table5) (Array.to_list loads) in
      Printf.printf "  (%d, %S);\n" seed (batch_digest (List.map solve gen)))
    seeds;
  Printf.printf "]\n"
