(* Pinned outputs of the exact search and the horizon planner.

   One row per Table 5 load on a 2xB1 pack: the optimal lifetime,
   stranded charge and schedule; the search's work counters with
   bounds on and off; and the lifetimes the receding-horizon policy
   reaches at k = 2 and k = 4.  The values were captured before the
   search core was merged into a single recursion and must never move:
   a refactor of [Sched.Optimal] may change how the tree is walked, not
   what it finds or how much of it is simulated. *)

let disc = Dkibam.Discretization.paper_b1
let enc load = Loads.Arrays.make ~time_step:0.01 ~charge_unit:0.01 load

type work = { positions : int; segments : int; pruned : int; cuts : int }

type row = {
  load : Loads.Testloads.name;
  lifetime : int;
  stranded : int;
  schedule : string;  (** one digit per scheduling point *)
  on : work;  (** bounds on *)
  off : work;  (** bounds off *)
  horizon2 : int;
  horizon4 : int;
}

let rows =
  [
    {
      load = Loads.Testloads.CL_250;
      lifetime = 1204;
      stranded = 800;
      schedule = "00101100110100";
      on = { positions = 883; segments = 1210; pruned = 12; cuts = 80 };
      off = { positions = 1102; segments = 1429; pruned = 12; cuts = 0 };
      horizon2 = 1197;
      horizon4 = 1197;
    };
    {
      load = Loads.Testloads.CL_500;
      lifetime = 457;
      stranded = 872;
      schedule = "001101";
      on = { positions = 23; segments = 33; pruned = 1; cuts = 1 };
      off = { positions = 25; segments = 35; pruned = 1; cuts = 0 };
      horizon2 = 451;
      horizon4 = 457;
    };
    {
      load = Loads.Testloads.CL_alt;
      lifetime = 647;
      stranded = 852;
      schedule = "00101010";
      on = { positions = 50; segments = 67; pruned = 1; cuts = 3 };
      off = { positions = 57; segments = 74; pruned = 1; cuts = 0 };
      horizon2 = 638;
      horizon4 = 647;
    };
    {
      load = Loads.Testloads.ILs_250;
      lifetime = 4080;
      stranded = 581;
      schedule = "0000010111011010101011";
      on = { positions = 21918; segments = 31095; pruned = 3136; cuts = 2338 };
      off = { positions = 27985; segments = 37162; pruned = 4058; cuts = 0 };
      horizon2 = 3892;
      horizon4 = 4072;
    };
    {
      load = Loads.Testloads.ILs_500;
      lifetime = 1050;
      stranded = 826;
      schedule = "0011011";
      on = { positions = 31; segments = 41; pruned = 1; cuts = 0 };
      off = { positions = 31; segments = 41; pruned = 1; cuts = 0 };
      horizon2 = 1050;
      horizon4 = 1050;
    };
    {
      load = Loads.Testloads.ILs_alt;
      lifetime = 1691;
      stranded = 755;
      schedule = "0101110101";
      on = { positions = 119; segments = 154; pruned = 1; cuts = 3 };
      off = { positions = 127; segments = 162; pruned = 1; cuts = 0 };
      horizon2 = 1689;
      horizon4 = 1689;
    };
    {
      load = Loads.Testloads.ILs_r1;
      lifetime = 2052;
      stranded = 738;
      schedule = "001010110111";
      on = { positions = 189; segments = 241; pruned = 1; cuts = 1 };
      off = { positions = 194; segments = 246; pruned = 1; cuts = 0 };
      horizon2 = 2052;
      horizon4 = 2052;
    };
    {
      load = Loads.Testloads.ILs_r2;
      lifetime = 1454;
      stranded = 799;
      schedule = "010011011";
      on = { positions = 99; segments = 129; pruned = 1; cuts = 0 };
      off = { positions = 99; segments = 129; pruned = 1; cuts = 0 };
      horizon2 = 1448;
      horizon4 = 1452;
    };
    {
      load = Loads.Testloads.ILl_250;
      lifetime = 7896;
      stranded = 427;
      schedule = "0000000100101011110101101011";
      on = { positions = 136932; segments = 205324; pruned = 49596; cuts = 7238 };
      off = { positions = 150829; segments = 219221; pruned = 54438; cuts = 0 };
      horizon2 = 7860;
      horizon4 = 7856;
    };
    {
      load = Loads.Testloads.ILl_500;
      lifetime = 1870;
      stranded = 766;
      schedule = "00110100";
      on = { positions = 37; segments = 48; pruned = 1; cuts = 0 };
      off = { positions = 37; segments = 48; pruned = 1; cuts = 0 };
      horizon2 = 1870;
      horizon4 = 1870;
    };
  ]

let check_int = Alcotest.(check int)

let test_search (row : row) bounds () =
  let a = enc (Loads.Testloads.load row.load) in
  let r = Sched.Optimal.search ~bounds ~n_batteries:2 disc a in
  let want = if bounds then row.on else row.off in
  check_int "lifetime" row.lifetime r.lifetime_steps;
  check_int "stranded" row.stranded r.stranded_units;
  Alcotest.(check string)
    "schedule" row.schedule
    (String.concat "" (Array.to_list (Array.map string_of_int r.schedule)));
  check_int "positions" want.positions r.stats.positions_explored;
  check_int "segments" want.segments r.stats.segments_run;
  check_int "memo hits" want.pruned r.stats.pruned;
  check_int "bound cuts" want.cuts r.stats.bound_cuts

let test_horizon (row : row) bounds () =
  let a = enc (Loads.Testloads.load row.load) in
  List.iter
    (fun (k, want) ->
      let policy = Sched.Horizon.policy ~bounds ~k () in
      let o = Sched.Simulator.simulate ~n_batteries:2 ~policy disc a in
      Alcotest.(check (option int))
        (Printf.sprintf "horizon-%d lifetime" k)
        (Some want) o.lifetime_steps)
    [ (2, row.horizon2); (4, row.horizon4) ]

let () =
  let cases f =
    List.concat_map
      (fun row ->
        List.map
          (fun bounds ->
            Alcotest.test_case
              (Printf.sprintf "%s bounds %b"
                 (Loads.Testloads.to_string row.load)
                 bounds)
              `Quick (f row bounds))
          [ true; false ])
      rows
  in
  Alcotest.run "pinned"
    [ ("optimal", cases test_search); ("horizon", cases test_horizon) ]
