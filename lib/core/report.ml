let pct_diff measured reference = 100.0 *. (measured -. reference) /. reference

let hr ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let validation_table title ppf (rows : Experiments.validation_row list) =
  Format.fprintf ppf "%s@." title;
  hr ppf 78;
  Format.fprintf ppf "%-8s  %10s %10s %7s   %10s %10s %7s@." "load" "KiBaM"
    "paper" "diff%" "dKiBaM" "paper" "diff%";
  hr ppf 78;
  List.iter
    (fun (r : Experiments.validation_row) ->
      let note =
        if Paper_data.reconstructed r.load then "  (reconstructed sequence)"
        else ""
      in
      Format.fprintf ppf "%-8s  %10.2f %10.2f %+7.2f   %10.2f %10.2f %+7.2f%s@."
        (Loads.Testloads.to_string r.load)
        r.analytic r.paper_analytic
        (pct_diff r.analytic r.paper_analytic)
        r.discrete r.paper_discrete
        (pct_diff r.discrete r.paper_discrete)
        note)
    rows;
  hr ppf 78

let table3 ppf rows =
  validation_table
    "Table 3: battery B1 lifetimes (min), analytic KiBaM vs discretized dKiBaM"
    ppf rows

let table4 ppf rows =
  validation_table
    "Table 4: battery B2 lifetimes (min), analytic KiBaM vs discretized dKiBaM"
    ppf rows

let table5 ppf (rows : Experiments.schedule_row list) =
  Format.fprintf ppf
    "Table 5: system lifetime (min), two B1 batteries, four schedulers@.";
  Format.fprintf ppf "(each cell: measured/paper; %%rr = gain over round robin)@.";
  hr ppf 100;
  Format.fprintf ppf "%-8s  %15s %15s %15s %15s %8s %8s@." "load" "sequential"
    "round robin" "best-of-two" "optimal" "opt%rr" "paper";
  hr ppf 100;
  List.iter
    (fun (r : Experiments.schedule_row) ->
      let cell m p = Format.asprintf "%6.2f/%6.2f" m p in
      let opt_gain = pct_diff r.optimal r.round_robin in
      let paper_gain = pct_diff r.paper.optimal r.paper.round_robin in
      let note =
        if Paper_data.reconstructed r.load then "  (reconstructed sequence)"
        else ""
      in
      Format.fprintf ppf "%-8s  %15s %15s %15s %15s %+7.1f%% %+7.1f%%%s@."
        (Loads.Testloads.to_string r.load)
        (cell r.sequential r.paper.sequential)
        (cell r.round_robin r.paper.round_robin)
        (cell r.best_of_two r.paper.best_of_two)
        (cell r.optimal r.paper.optimal)
        opt_gain paper_gain note)
    rows;
  hr ppf 100

let figure6 ppf ~label (f : Experiments.fig6) =
  Format.fprintf ppf
    "Figure 6 (%s): ILs alt, two B1 batteries; lifetime %.2f min, %.0f%% of \
     the charge stranded@."
    label f.lifetime (100.0 *. f.stranded_fraction);
  let n =
    match f.points with [] -> 0 | p :: _ -> Array.length p.total
  in
  for b = 0 to n - 1 do
    Format.fprintf ppf "# battery %d: time(min) total(A*min) available(A*min)@." b;
    List.iter
      (fun (p : Experiments.fig6_point) ->
        Format.fprintf ppf "%8.2f %8.4f %8.4f@." p.time p.total.(b)
          p.available.(b))
      f.points;
    Format.fprintf ppf "@."
  done;
  Format.fprintf ppf "# schedule: from(min) to(min) battery@.";
  List.iter
    (fun (a, b, bat) -> Format.fprintf ppf "%8.2f %8.2f %d@." a b bat)
    f.intervals

let capacity_sweep ppf rows =
  Format.fprintf ppf
    "Capacity sweep (S6 ablation): two scaled-B1 batteries, best-of-two, ILs \
     alt@.";
  Format.fprintf ppf "%8s %14s %18s@." "factor" "lifetime(min)" "stranded fraction";
  List.iter
    (fun (f, lt, frac) ->
      Format.fprintf ppf "%8.1f %14.2f %17.1f%%@." f lt (100.0 *. frac))
    rows

let complexity ppf rows =
  Format.fprintf ppf
    "Optimal-search complexity probe (S4.4): decisions vs memo positions@.";
  Format.fprintf ppf "%-8s %10s %12s %10s@." "load" "decisions" "positions" "seconds";
  List.iter
    (fun (name, decisions, positions, dt) ->
      Format.fprintf ppf "%-8s %10d %12d %10.3f@."
        (Loads.Testloads.to_string name)
        decisions positions dt)
    rows

let model_comparison ppf rows =
  Format.fprintf ppf
    "Model-fidelity ablation: analytic KiBaM vs Rakhmatov-Vrudhula diffusion \
     (B1, minutes)@.";
  Format.fprintf ppf "%-8s %10s %12s %8s@." "load" "KiBaM" "diffusion" "diff%";
  List.iter
    (fun (name, k, d) ->
      Format.fprintf ppf "%-8s %10.2f %12.2f %+7.2f@."
        (Loads.Testloads.to_string name)
        k d (pct_diff d k))
    rows

let cross_validation ppf (c : Experiments.cross_validation) =
  Format.fprintf ppf "Engine cross-validation (TA-KiBaM min-cost search vs fast \
                      branch-and-bound)@.";
  Format.fprintf ppf "instance: %s@." c.toy_description;
  Format.fprintf ppf
    "fast: lifetime %d steps, stranded %d units;  TA: lifetime %d steps, \
     stranded %d units  ->  %s@."
    c.fast_lifetime_steps c.fast_stranded c.ta_lifetime_steps c.ta_stranded
    (if c.agrees then "AGREE" else "DISAGREE")

let horizon_sweep ppf ~load rows =
  Format.fprintf ppf
    "Horizon ablation (X2): receding-horizon scheduling on %s, two B1 \
     batteries@."
    (Loads.Testloads.to_string load);
  Format.fprintf ppf "%12s %14s@." "policy" "lifetime(min)";
  let n = List.length rows in
  List.iteri
    (fun i (window, lt) ->
      let label =
        match window with
        | Some k -> Sched.Horizon.name ~k ()
        | None -> if i = 0 then "best-of-two" else if i = n - 1 then "optimal" else "?"
      in
      Format.fprintf ppf "%12s %14.2f@." label lt)
    rows

let granularity_sweep ppf rows =
  Format.fprintf ppf
    "Granularity ablation (A3): dKiBaM accuracy and search size vs (T, \
     Gamma), single/two B1 on ILs alt@.";
  Format.fprintf ppf "%10s %10s %14s %10s %12s@." "T (min)" "Gamma" "lifetime"
    "err vs exact" "positions";
  List.iter
    (fun (r : Experiments.granularity_row) ->
      Format.fprintf ppf "%10.4f %10.3f %14.3f %9.2f%% %12d@." r.g_time_step
        r.g_charge_unit r.g_lifetime
        (100.0 *. r.g_error_vs_analytic)
        r.g_positions)
    rows

let multi_battery ppf ~load rows =
  Format.fprintf ppf
    "Multi-battery generalization (beyond the paper): B1 packs on %s@."
    (Loads.Testloads.to_string load);
  List.iter (fun (_, a) -> Format.fprintf ppf "%a@." Sched.Analysis.pp a) rows

let ensemble ppf (e : Sched.Ensemble.t) =
  Format.fprintf ppf
    "Random-load ensemble (the paper's section 7 outlook): %d random ILs \
     loads, %d batteries@."
    e.n_loads e.n_batteries;
  Format.fprintf ppf "%-12s %8s %8s %8s %8s %8s %8s %8s@." "policy" "mean"
    "stddev" "min" "q25" "median" "q75" "max";
  List.iter
    (fun (name, (s : Sched.Ensemble.stats)) ->
      Format.fprintf ppf "%-12s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f@."
        name s.mean s.stddev s.minimum s.q25 s.median s.q75 s.maximum)
    e.per_policy;
  let g = e.top_gain_over_rr in
  Format.fprintf ppf
    "%s gain over round robin: mean %+.1f%%, median %+.1f%%, max %+.1f%%@."
    e.gain_baseline g.mean g.median g.maximum;
  if e.gain_baseline = "optimal" then
    Format.fprintf ppf "best-of already optimal on %.0f%% of the loads@."
      (100.0 *. e.best_of_matches_top_fraction)
  else
    Format.fprintf ppf
      "(optimal search skipped: gains are measured against %s, a lower \
       bound on the true optimal gain)@."
      e.gain_baseline;
  if e.budget_exhausted > 0 then
    Format.fprintf ppf
      "(budget exhausted on %d of %d loads: their \"optimal\" figures are \
       anytime lower bounds, not proven optima)@."
      e.budget_exhausted e.n_loads

let montecarlo ppf (m : Sched.Montecarlo.t) =
  Format.fprintf ppf
    "Monte Carlo fleet: model %s, seed %Ld, %d of %d samples, %d batteries@."
    m.mc_model m.mc_seed m.mc_samples m.mc_samples_requested m.mc_n_batteries;
  (match m.mc_policies with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-12s %8s %8s %9s %9s" "policy" "deaths" "survived"
        "mean" "stddev";
      List.iter
        (fun (q, _) -> Format.fprintf ppf " %8s" (Printf.sprintf "p%g" (100.0 *. q)))
        first.Sched.Montecarlo.ps_quantiles;
      Format.fprintf ppf "@.");
  List.iter
    (fun (ps : Sched.Montecarlo.policy_summary) ->
      Format.fprintf ppf "%-12s %8d %8d %9.3f %9.3f" ps.ps_policy ps.ps_deaths
        ps.ps_survived ps.ps_mean ps.ps_stddev;
      List.iter (fun (_, v) -> Format.fprintf ppf " %8.3f" v) ps.ps_quantiles;
      Format.fprintf ppf "@.")
    m.mc_policies;
  let dbs =
    List.filter_map
      (fun (ps : Sched.Montecarlo.policy_summary) ->
        Option.map (fun db -> (ps.ps_policy, db)) ps.ps_death_before)
      m.mc_policies
  in
  (match dbs with
  | [] -> ()
  | (_, (db0 : Sched.Montecarlo.death_before)) :: _ ->
      Format.fprintf ppf
        "P(death before %g min), 95%% normal-approximation CI:@."
        db0.db_deadline_min;
      List.iter
        (fun (name, (db : Sched.Montecarlo.death_before)) ->
          Format.fprintf ppf "  %-12s %6.4f  [%6.4f, %6.4f]  (%d of %d)@." name
            db.db_fraction db.db_ci_low db.db_ci_high db.db_deaths m.mc_samples)
        dbs);
  if m.mc_dominance <> [] then begin
    Format.fprintf ppf
      "pairwise dominance (paired samples; fraction where A strictly \
       outlives B, 95%% CI):@.";
    List.iter
      (fun (d : Sched.Montecarlo.dominance) ->
        Format.fprintf ppf
          "  %-12s > %-12s %6.4f  [%6.4f, %6.4f]  (A %d / ties %d / B %d)@."
          d.dom_a d.dom_b d.dom_a_fraction d.dom_ci_low d.dom_ci_high
          d.dom_a_wins d.dom_ties d.dom_b_wins)
      m.mc_dominance
  end;
  match m.mc_tripped with
  | None -> ()
  | Some trip ->
      Format.fprintf ppf
        "budget exhausted (%s): estimates reflect the %d completed samples@."
        (Guard.Budget.trip_to_string trip)
        m.mc_samples
