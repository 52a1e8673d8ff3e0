type objective = Max_lifetime | Min_stranded | Min_lifetime

(* Observability (lib/obs).  The integer counters are synced from the
   search's own [stats] refs at the moment the stats snapshot is taken,
   so the reported Obs counters are bit-equal to [result.stats] by
   construction (asserted in the test suite); only the depth histogram
   and the spans are recorded in-loop, behind the enabled flag. *)
let c_positions = Obs.counter "optimal.positions"
let c_segments = Obs.counter "optimal.segments"
let c_memo_hits = Obs.counter "optimal.memo_hits"
let c_memo_misses = Obs.counter "optimal.memo_misses"
let c_bound_cuts = Obs.counter "optimal.bound_cuts"
let c_searches = Obs.counter "optimal.searches"
let c_exhausted = Obs.counter "optimal.budget_exhausted"
let h_depth = Obs.histogram "optimal.depth"
let s_search = Obs.span "optimal.search"

type fallback = Search_prefix | Policy_floor

type exhaustion = { trip : Guard.Budget.trip; fallback : fallback }

type status = Optimal | Budget_exhausted of exhaustion

type checkpoint = { path : string; every_segments : int; resume : bool }

let checkpoint ?(every_segments = 65_536) ?(resume = false) path =
  if every_segments < 1 then
    invalid_arg "Sched.Optimal.checkpoint: every_segments >= 1";
  { path; every_segments; resume }

type result = {
  lifetime_steps : int;
  stranded_units : int;
  schedule : int array;
  status : status;
  stats : stats;
}

and stats = {
  positions_explored : int;
  segments_run : int;
  pruned : int;
  bound_cuts : int;
}

exception Load_too_short

type pos = {
  y : int;  (** job epoch index where serving (re)starts *)
  local : int;  (** offset into epoch [y] *)
  bank : Bank.t;
}

type seg_outcome =
  | Terminal of (int * int)  (* death step, stranded units *)
  | Next of pos
  | Exhausted

(* Advance from the start of epoch [y] through idle epochs to the next job
   epoch; batteries recover along the way.  Mutates [bank]. *)
let rec advance_to_job cursor y bank =
  if y >= Loads.Cursor.epoch_count cursor then Exhausted
  else if not (Loads.Cursor.is_idle cursor y) then Next { y; local = 0; bank }
  else begin
    Bank.tick_all bank (Loads.Cursor.epoch_len cursor y);
    advance_to_job cursor (y + 1) bank
  end

(* Serve epoch [pos.y] from [pos.local] with battery [b]; deterministic up
   to the next decision point.  [skip_final] elides the draw that falls
   exactly on the epoch's last step — the go_off/use_charge race the
   published TA leaves open (see mli); the cursor folds it into the
   schedule. *)
let run_segment cursor ~switch_delay ~skip_final pos b =
  let y = pos.y in
  let len = Loads.Cursor.epoch_len cursor y in
  let start = Loads.Cursor.epoch_start cursor y in
  let bank = Bank.copy pos.bank in
  let sch = Loads.Cursor.schedule_from ~skip_final cursor y ~local:pos.local in
  match Bank.serve bank ~b sch with
  | Bank.Completed -> advance_to_job cursor (y + 1) bank
  | Bank.Died off ->
      let next = pos.local + off in
      let death_step = start + next in
      if Bank.all_dead bank then Terminal (death_step, Bank.stranded bank)
      else begin
        let resume = next + switch_delay in
        if resume < len then begin
          Bank.tick_all bank switch_delay;
          Next { y; local = resume; bank }
        end
        else begin
          Bank.tick_all bank (len - next);
          advance_to_job cursor (y + 1) bank
        end
      end

(* Canonical memo key: decision point plus the multiset of battery states
   (identical cells make schedules confluent up to battery renaming).
   [frontier], when given, is prepended: a window value depends on where
   its window ends. *)
module Key = struct
  type t = int array

  let equal = ( = )

  let hash (a : t) =
    let h = ref 0x3bf29ce484222325 in
    Array.iter (fun v -> h := (!h lxor v) * 0x100000001b3 land max_int) a;
    !h

  let of_pos ?frontier (p : pos) =
    let n = Bank.size p.bank in
    let cells =
      Array.init n (fun i ->
          let b = Bank.battery p.bank i in
          ( b.Dkibam.Battery.n_gamma,
            b.Dkibam.Battery.m_delta,
            b.Dkibam.Battery.recov_clock,
            Bank.is_dead p.bank i ))
    in
    Array.sort compare cells;
    let off = match frontier with None -> 0 | Some _ -> 1 in
    let key =
      Array.make (off + 2 + (4 * n)) (Option.value frontier ~default:0)
    in
    key.(off) <- p.y;
    key.(off + 1) <- p.local;
    Array.iteri
      (fun i (n_gamma, m_delta, clock, d) ->
        let j = off + 2 + (4 * i) in
        key.(j) <- n_gamma;
        key.(j + 1) <- m_delta;
        key.(j + 2) <- clock;
        key.(j + 3) <- (if d then 1 else 0))
      cells;
    key
end

module Tbl = Hashtbl.Make (Key)

(* ------------------------------------------------------------------ *)
(* The search core                                                     *)
(* ------------------------------------------------------------------ *)

(* One memoized, bound-pruned recursion serves [search] (its root, its
   interior and its schedule replay) and [plan].  Everything that
   differs between the two is data fixed once per call, so [explore]
   never asks which caller it serves. *)
type core = {
  cursor : Loads.Cursor.t;
  switch_delay : int;
  skip_too : bool;  (* also branch on eliding an epoch's final draw *)
  frontier : int;  (* positions in epochs >= [frontier] score [at_frontier] *)
  at_frontier : pos -> int;
  terminal : int * int -> int;  (* value of (death step, stranded units) *)
  exhausted : unit -> int;  (* value when the load ends with a battery alive *)
  seed : pos -> int;  (* achievable floor on an interior node's value *)
  upper : pos -> int;  (* admissible ceiling; [Bound.infinite]: cannot cut *)
  key : pos -> Key.t;
  memo : int Tbl.t;
  (* Cross-call shared store: lookups fall through the private table to
     it (copying hits local, so a shared shard lock is taken once per
     distinct position); stores publish to both. *)
  shared : Memo.scope option;
  charge : unit -> unit;  (* once per simulated segment *)
  on_position : int -> unit;  (* once per explored position, given its depth *)
  segments : int ref;
  hits : int ref;
  misses : int ref;
  cuts : int ref;
}

let lookup c key =
  match Tbl.find_opt c.memo key with
  | Some _ as v -> v
  | None -> (
      match c.shared with
      | None -> None
      | Some s -> (
          match Memo.find s key with
          | Some v ->
              Tbl.replace c.memo key v;
              Some v
          | None -> None))

let store c key v =
  Tbl.replace c.memo key v;
  match c.shared with Some s -> Memo.add s key v | None -> ()

let no_settle _ _ _ = ()

(* Exact value of the unsolved position [p] (memo key [key]), memoized
   before it is returned.  The node's running best starts at [seed];
   a child whose upper bound cannot beat it is cut, every other child
   is reported to [settled] as (battery, skip_final, value). *)
let rec explore c ~depth ~seed ~settled key (p : pos) =
  incr c.misses;
  c.on_position depth;
  let best = ref seed in
  let choose b skip_final =
    let v = child c ~depth ~best:!best p b skip_final in
    if v > min_int then begin
      settled b skip_final v;
      if v > !best then best := v
    end
  in
  List.iter
    (fun b ->
      choose b false;
      if c.skip_too then choose b true)
    (Bank.alive p.bank);
  (* a decision point always has at least one alive battery *)
  assert (!best > min_int);
  store c key !best;
  !best

(* Value of serving [p] with battery [b]; [min_int] for a cut child. *)
and child c ~depth ~best p b skip_final =
  incr c.segments;
  c.charge ();
  match run_segment c.cursor ~switch_delay:c.switch_delay ~skip_final p b with
  | Terminal t -> c.terminal t
  | Exhausted -> c.exhausted ()
  | Next p' when p'.y >= c.frontier -> c.at_frontier p'
  | Next p' -> (
      let key = c.key p' in
      (* memoized children are looked up before the bound check, so hit
         counts match the unpruned search exactly *)
      match lookup c key with
      | Some v ->
          incr c.hits;
          v
      | None ->
          let ub = c.upper p' in
          if ub < Bound.infinite && ub <= best then begin
            incr c.cuts;
            min_int
          end
          else
            explore c ~depth:(depth + 1) ~seed:(c.seed p') ~settled:no_settle
              key p')

(* Checkpoint framing (Guard.Checkpoint does the atomic write and the
   checksum; see doc/ROBUSTNESS.md).  The fingerprint digests every
   input the memo values depend on, so a snapshot from a different
   load, pack or objective is refused instead of silently poisoning a
   resumed search — memo entries are exact subtree values, but only
   for the inputs that produced them. *)
let memo_magic = "sched.optimal.memo.v2"

(* Bounds default to on; the environment switch lets `dune runtest` and
   A/B comparisons exercise the unpruned search without touching every
   call site (the CLI's --no-bounds passes [~bounds:false] explicitly). *)
let bounds_default () =
  match Sys.getenv_opt "BATSCHED_NO_BOUNDS" with
  | None | Some "" -> true
  | Some _ -> false

let fingerprint ~switch_delay ~objective ~allow_final_draw_skip ~initial
    ~n_batteries disc load =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( disc,
            load,
            n_batteries,
            switch_delay,
            objective,
            allow_final_draw_skip,
            initial )
          []))

let search ?budget ?checkpoint ?shared ?(switch_delay = 1)
    ?(objective = Max_lifetime) ?bounds ?(allow_final_draw_skip = false)
    ?initial ~n_batteries (disc : Dkibam.Discretization.t)
    (load : Loads.Arrays.t) =
  (match initial with
  | Some a when Array.length a <> n_batteries ->
      invalid_arg "Sched.Optimal.search: initial length mismatch"
  | _ -> ());
  if n_batteries < 1 then invalid_arg "Sched.Optimal.search: need >= 1 battery";
  Loads.Arrays.check_compatible load ~time_step:disc.time_step
    ~charge_unit:disc.charge_unit;
  Obs.incr c_searches;
  Obs.time s_search @@ fun () ->
  let cursor = Loads.Cursor.make load in
  let score (step, stranded_units) =
    match objective with
    | Max_lifetime -> step
    | Min_stranded -> -stranded_units
    | Min_lifetime -> -step
  in
  let bounds_on = match bounds with Some b -> b | None -> bounds_default () in
  let bound =
    if bounds_on then
      Some (Bound.create ~switch_delay ~allow_final_draw_skip disc cursor)
    else None
  in
  (* Objective-specific admissible upper bound on [score] at a position;
     [Bound.infinite] when the bound cannot cut — in particular whenever
     some continuation might outlive the load, because a pruned subtree
     must be provably free of [Load_too_short]. *)
  let upper (p : pos) =
    match bound with
    | None -> Bound.infinite
    | Some bd -> (
        let ub = Bound.lifetime_ub bd ~y:p.y ~local:p.local p.bank in
        if ub >= Bound.infinite then Bound.infinite
        else
          match objective with
          | Max_lifetime -> ub
          | Min_stranded -> -Bound.stranded_lb bd ~y:p.y ~local:p.local p.bank
          | Min_lifetime ->
              let lb = Bound.lifetime_lb bd ~y:p.y ~local:p.local p.bank in
              if lb >= Bound.infinite then Bound.infinite else -lb)
  in
  (* Achievable floor on a node's value: every continuation that dies
     scores at least this much, so seeding [best] with it keeps the
     stored maximum exact while letting dominated children be cut before
     any of them is explored. *)
  let seed_score (p : pos) =
    match bound with
    | None -> min_int
    | Some bd -> (
        match objective with
        | Max_lifetime ->
            let lb = Bound.lifetime_lb bd ~y:p.y ~local:p.local p.bank in
            if lb >= Bound.infinite then min_int else lb
        | Min_lifetime ->
            let ub = Bound.lifetime_ub bd ~y:p.y ~local:p.local p.bank in
            if ub >= Bound.infinite then min_int else -ub
        | Min_stranded -> min_int)
  in
  let memo : int Tbl.t = Tbl.create 4096 in
  let segments = ref 0 in
  (* Budget hooks.  [armed] is cleared once the search phase ends so the
     replay below (all memo hits) and the floor fallback can never trip;
     with no budget both hooks are no-ops and the search is bit-identical
     to the unbudgeted one. *)
  let armed = ref true in
  let charge () =
    match budget with
    | Some b when !armed -> Guard.Budget.charge_segment_exn b
    | _ -> ()
  in
  let note_position () =
    match budget with
    | Some b when !armed ->
        Guard.Budget.note_positions b 1;
        Guard.Budget.check_exn b
    | _ -> ()
  in
  (* Checkpointing.  Snapshots only ever contain fully-solved positions:
     an entry reaches [memo] after its whole subtree has been evaluated,
     so a snapshot taken mid-search — or left behind by a killed process
     — preloads as a pure cache and the resumed search returns the same
     lifetime, stranded charge and schedule as an uninterrupted run. *)
  let fp =
    lazy
      (fingerprint ~switch_delay ~objective ~allow_final_draw_skip ~initial
         ~n_batteries disc load)
  in
  let ckpt_save () =
    match checkpoint with
    | None -> ()
    | Some ck ->
        let entries = Tbl.fold (fun k v acc -> (k, v) :: acc) memo [] in
        (* the flag is informational: entries are exact subtree values in
           both modes, so a snapshot resumes soundly across modes and the
           fingerprint deliberately excludes it *)
        let payload =
          Marshal.to_string
            ((bounds_on, Array.of_list entries) : bool * (Key.t * int) array)
            []
        in
        Guard.Checkpoint.save ~path:ck.path ~magic:memo_magic
          ~fingerprint:(Lazy.force fp) payload
  in
  let last_ckpt = ref 0 in
  let maybe_ckpt () =
    match checkpoint with
    | Some ck when !segments - !last_ckpt >= ck.every_segments ->
        last_ckpt := !segments;
        ckpt_save ()
    | _ -> ()
  in
  (match checkpoint with
  | Some ck when ck.resume -> (
      match
        Guard.Checkpoint.load ~path:ck.path ~magic:memo_magic
          ~fingerprint:(Lazy.force fp)
      with
      | Ok payload ->
          let (_saved_with_bounds : bool), (entries : (Key.t * int) array) =
            Marshal.from_string payload 0
          in
          Array.iter (fun (k, v) -> Tbl.replace memo k v) entries
      | Error Guard.Checkpoint.Missing -> ()
      | Error (Guard.Checkpoint.Bad e) -> Guard.Error.raise_exn e)
  | _ -> ());
  (* The shared store (Sched.Memo) is scoped by a fingerprint of every
     input the values depend on, so entries never leak across loads,
     packs or objectives; the values themselves are exact, so warmth
     changes the work, never the result — bit-identity cold/warm/evicted
     is asserted in test/test_memo.ml.  Safe from concurrent searches on
     any domain (Memo is sharded + locked; the local table stays
     private). *)
  let core =
    {
      cursor;
      switch_delay;
      skip_too = allow_final_draw_skip;
      frontier = max_int;
      at_frontier = (fun _ -> assert false);
      terminal = score;
      exhausted = (fun () -> raise Load_too_short);
      seed = seed_score;
      upper;
      key = (fun p -> Key.of_pos p);
      memo;
      shared =
        Option.map
          (fun m -> Memo.scope m ~fingerprint:("search|" ^ Lazy.force fp))
          shared;
      charge;
      (* [depth] counts decisions from the root and only feeds the
         observability histogram *)
      on_position =
        (fun depth ->
          note_position ();
          Obs.observe h_depth depth;
          maybe_ckpt ());
      segments;
      hits = ref 0;
      misses = ref 0;
      cuts = ref 0;
    }
  in
  let value key p =
    match lookup core key with
    | Some v ->
        incr core.hits;
        v
    | None ->
        explore core ~depth:0 ~seed:(seed_score p) ~settled:no_settle key p
  in
  let root =
    match advance_to_job cursor 0 (Bank.create ?initial ~n_batteries disc) with
    | Next p -> p
    | Exhausted -> raise Load_too_short
    | Terminal _ -> assert false
  in
  (* Incumbent: one best-of-two policy run — the same floor the anytime
     fallback uses — scores a schedule that is a path of this very tree,
     so its score never exceeds the true optimum and seeding the root
     [best] with it is exact.  Only computed with bounds on: with bounds
     off nothing could consume it and the search must reproduce the
     historical unpruned behaviour segment for segment. *)
  let incumbent_floor =
    match bound with
    | None -> min_int
    | Some _ -> (
        let o =
          Simulator.simulate ?initial ~switch_delay ~n_batteries
            ~policy:Policy.Best_of disc load
        in
        match o.Simulator.lifetime_steps with
        | None -> min_int
        | Some steps -> score (steps, Bank.stranded_units o.Simulator.final))
  in
  (* The root is searched one first-decision branch at a time, so on
     budget exhaustion every branch settled so far is a fully-memoized,
     exact subtree — the anytime result below replays the best of them.
     [completed] collects (choice, value) in evaluation order; [trip_info]
     latches the budget trip.  The position note sits inside the [try]: a
     budget shared across searches may already be tripped on entry, and
     that must surface as an anytime status, not an exception. *)
  let completed = ref [] in
  let trip_info = ref None in
  let root_key = Key.of_pos root in
  (match lookup core root_key with
  | Some _ -> incr core.hits
  | None -> (
      let settled b skip_final v =
        completed := ((b, skip_final), v) :: !completed
      in
      try
        ignore
          (explore core ~depth:0 ~seed:incumbent_floor ~settled root_key root)
      with Guard.Budget.Tripped r -> trip_info := Some r));
  armed := false;
  (* Final snapshot: a completed run leaves a full-resume cache; a
     tripped run leaves every subtree it solved. *)
  ckpt_save ();
  (* Search-phase statistics, snapshotted before the replay below adds
     its own (all-hit) memo lookups.  The Obs counters are synced from
     the very same values, so [--stats] reports exactly [result.stats]
     plus the miss count. *)
  let stats =
    {
      positions_explored = Tbl.length memo;
      segments_run = !segments;
      pruned = !(core.hits);
      bound_cuts = !(core.cuts);
    }
  in
  Obs.add c_positions stats.positions_explored;
  Obs.add c_segments stats.segments_run;
  Obs.add c_memo_hits stats.pruned;
  Obs.add c_memo_misses !(core.misses);
  Obs.add c_bound_cuts stats.bound_cuts;
  (* Reconstruct one optimal schedule by replaying, at each position,
     the first choice whose exact value matches the position's own — the
     same selection the strict-argmax fold made before bounds existed.
     With bounds on, a child whose score upper bound falls strictly
     below the target cannot be that first match and is skipped without
     being evaluated; a child the search itself cut may have to be
     evaluated here (it memoizes as it goes, after the stats snapshot
     above and with the budget disarmed). *)
  let skip_options = if allow_final_draw_skip then [ false; true ] else [ false ] in
  let choices (p : pos) =
    List.concat_map
      (fun b -> List.map (fun sk -> (b, sk)) skip_options)
      (Bank.alive p.bank)
  in
  let schedule = ref [] in
  let final = ref (0, 0) in
  let rec replay (p : pos) =
    let v_star = value (Key.of_pos p) p in
    let rec pick = function
      | [] -> assert false
      | (b, skip_final) :: rest -> (
          match run_segment cursor ~switch_delay ~skip_final p b with
          | Terminal t ->
              if score t = v_star then (b, None, Some t) else pick rest
          | Next p' ->
              let key = Key.of_pos p' in
              let ub = upper p' in
              if ub < Bound.infinite && ub < v_star && not (Tbl.mem memo key)
              then pick rest
              else if value key p' = v_star then (b, Some p', None)
              else pick rest
          | Exhausted -> raise Load_too_short)
    in
    let b, next, terminal = pick (choices p) in
    schedule := b :: !schedule;
    match next with
    | Some p' -> replay p'
    | None -> ( match terminal with Some t -> final := t | None -> assert false)
  in
  match !trip_info with
  | None ->
      replay root;
      let lifetime_steps, stranded_units = !final in
      {
        lifetime_steps;
        stranded_units;
        schedule = Array.of_list (List.rev !schedule);
        status = Optimal;
        stats;
      }
  | Some trip -> (
      Obs.incr c_exhausted;
      (* Anytime degradation: the best fully-evaluated first-decision
         branch — an exact value, replayable to a feasible schedule
         from the memo — floored by one best-of-two policy simulation.
         Whichever scores better is returned; the budget never turns
         into an exception here. *)
      let floor_score, fl_steps, fl_stranded, fl_schedule =
        let o =
          Simulator.simulate ?initial ~switch_delay ~n_batteries
            ~policy:Policy.Best_of disc load
        in
        match o.Simulator.lifetime_steps with
        | None -> raise Load_too_short
        | Some steps ->
            let stranded = Bank.stranded_units o.Simulator.final in
            let schedule = Array.of_list (List.map snd o.Simulator.decisions) in
            (score (steps, stranded), steps, stranded, schedule)
      in
      let best_branch =
        List.fold_left
          (fun acc (c, v) ->
            match acc with
            | Some (_, bv) when bv >= v -> acc
            | _ -> Some (c, v))
          None (List.rev !completed)
      in
      match best_branch with
      | Some ((b0, sk0), v) when v >= floor_score ->
          schedule := [ b0 ];
          (match run_segment cursor ~switch_delay ~skip_final:sk0 root b0 with
          | Terminal t -> final := t
          | Next p1 -> replay p1
          | Exhausted -> raise Load_too_short);
          let lifetime_steps, stranded_units = !final in
          {
            lifetime_steps;
            stranded_units;
            schedule = Array.of_list (List.rev !schedule);
            status = Budget_exhausted { trip; fallback = Search_prefix };
            stats;
          }
      | _ ->
          {
            lifetime_steps = fl_steps;
            stranded_units = fl_stranded;
            schedule = fl_schedule;
            status = Budget_exhausted { trip; fallback = Policy_floor };
            stats;
          })

let lifetime ?budget ?switch_delay ?objective ?bounds ?allow_final_draw_skip
    ?initial ~n_batteries disc load =
  Dkibam.Discretization.minutes_of_steps disc
    (search ?budget ?switch_delay ?objective ?bounds ?allow_final_draw_skip
       ?initial ~n_batteries disc load)
      .lifetime_steps

(* ------------------------------------------------------------------ *)
(* Suffix planning with a terminal bound — the Horizon policy's core   *)
(* ------------------------------------------------------------------ *)

(* A planner is the core's per-load template; each [plan] fills in its
   frontier, the frontier-prefixed key and its budget.  Memo entries are exact window values keyed by
   frontier (the same position has a different value under a different
   window), so successive plans at the same frontier — mid-job replans,
   and every plan once the window covers the whole load — share
   subtrees, and so do planners sharing one [Memo.scope]. *)
type planner = core

type plan = { plan_choice : int; plan_value : int }

let planner ?(switch_delay = 1) ?bounds ?shared (disc : Dkibam.Discretization.t)
    (cursor : Loads.Cursor.t) =
  let bounds_on = match bounds with Some b -> b | None -> bounds_default () in
  let bd = Bound.create ~switch_delay ~allow_final_draw_skip:false disc cursor in
  {
    cursor;
    switch_delay;
    skip_too = false;
    frontier = max_int;
    (* Admissible terminal value at the window frontier: the
       pooled-recovery lower bound — every continuation from the
       frontier survives to at least this step ([Bound.infinite]: none
       can die within the load). *)
    at_frontier =
      (fun p -> Bound.lifetime_lb bd ~y:p.y ~local:p.local p.bank);
    terminal = fst;
    exhausted = (fun () -> Bound.infinite);
    seed = (fun _ -> min_int);
    upper =
      (if bounds_on then fun p ->
         Bound.lifetime_ub bd ~y:p.y ~local:p.local p.bank
       else fun _ -> Bound.infinite);
    key = (fun p -> Key.of_pos p);
    memo = Tbl.create 1024;
    shared;
    charge = ignore;
    on_position = ignore;
    segments = ref 0;
    hits = ref 0;
    misses = ref 0;
    cuts = ref 0;
  }

(* Every window value is a death step some continuation is proven to
   reach (or [Bound.infinite]), so committing the argmax is
   well-founded.  Cuts drop children whose lifetime upper bound cannot
   beat an already-achieved sibling value: the dropped child's window
   value is [<= ub <= best], so the stored max — and, because [best]
   only ever grows along the first-max fold, the argmax committed at the
   root — are unchanged (the bit-identity argument of [search]). *)
let plan ?budget (t : planner) ~frontier_epoch ~y ~local bank =
  if y < 0 || y >= Loads.Cursor.epoch_count t.cursor then
    invalid_arg "Sched.Optimal.plan: y out of range";
  if local < 0 || local >= Loads.Cursor.epoch_len t.cursor y then
    invalid_arg "Sched.Optimal.plan: local out of range";
  if Bank.alive bank = [] then
    invalid_arg "Sched.Optimal.plan: no battery alive";
  let c =
    {
      t with
      frontier = frontier_epoch;
      key = Key.of_pos ~frontier:frontier_epoch;
      charge =
        (match budget with
        | Some b -> fun () -> Guard.Budget.charge_segment_exn b
        | None -> ignore);
    }
  in
  let root = { y; local; bank } in
  let choice = ref (-1) and best = ref min_int in
  let settled b _ v =
    if v > !best then begin
      best := v;
      choice := b
    end
  in
  match explore c ~depth:0 ~seed:min_int ~settled (c.key root) root with
  | v -> Some { plan_choice = !choice; plan_value = v }
  | exception Guard.Budget.Tripped _ -> None
