(** Plain-text rendering of the reproduced tables and figures.

    Output is aligned, ASCII-only, and prints paper-vs-measured columns
    with relative differences, so that `dune exec bench/main.exe` and
    `batsched tables` read like the paper's evaluation section. *)

val table3 : Format.formatter -> Experiments.validation_row list -> unit
val table4 : Format.formatter -> Experiments.validation_row list -> unit
val table5 : Format.formatter -> Experiments.schedule_row list -> unit

val figure6 :
  Format.formatter -> label:string -> Experiments.fig6 -> unit
(** Gnuplot-ready series: one block per battery with
    [time total available] columns, then the schedule steps — the same
    data Figure 6 plots. *)

val capacity_sweep : Format.formatter -> (float * float * float) list -> unit
val complexity : Format.formatter -> (Loads.Testloads.name * int * int * float) list -> unit
val model_comparison : Format.formatter -> (Loads.Testloads.name * float * float) list -> unit
val cross_validation : Format.formatter -> Experiments.cross_validation -> unit

val pct_diff : float -> float -> float
(** [pct_diff measured reference] = 100·(measured − reference)/reference. *)

val horizon_sweep :
  Format.formatter -> load:Loads.Testloads.name -> (int option * float) list -> unit

val granularity_sweep :
  Format.formatter -> Experiments.granularity_row list -> unit

val multi_battery :
  Format.formatter -> load:Loads.Testloads.name -> (int * Sched.Analysis.t) list -> unit

val ensemble : Format.formatter -> Sched.Ensemble.t -> unit

val montecarlo : Format.formatter -> Sched.Montecarlo.t -> unit
(** The Monte Carlo fleet summary: one distribution row per policy
    (deaths, survivors, mean/stddev, percentile lifetimes), then the
    optional death-before-deadline table, the pairwise-dominance table
    with confidence intervals, and the budget-trip note when the run
    was cut short.  Prints no wall-clock times: equal results render
    byte-identically, which is what the determinism acceptance check
    diffs. *)
