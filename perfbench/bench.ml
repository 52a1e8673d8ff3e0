(* The benchmark's workload runner.  [perfbench/run.py] builds it and
   drives it; run it directly as

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--daemon PATH] [--out DIR] [--setup-only]

   It prints progress and, with --trace 1, the layer table, then one
   line "RESULT {json}" with the operations attempted and failed, the
   metrics, the deterministic work counters and details.  --setup-only
   builds the workload's inputs (spawning and connecting the daemon for
   serve-mixed) and exits: run.py times it for setup_s.  [pin] prints
   the pinned answers that [Pinned] holds. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload exact-table5|horizon-fleet|mc-fleet|serve-mixed --seed N \
     --seconds S --trace 0|1 [--daemon PATH] [--out DIR] [--setup-only]\n\
    \       bench.exe pin SEEDS";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "pin"; n ] ->
      let seeds = List.init (int_of_string n) (fun i -> i + 1) in
      W_exact.pin seeds;
      W_horizon.pin seeds
  | _ :: args ->
      let rec parse acc = function
        | "--setup-only" :: rest -> parse (("setup-only", "1") :: acc) rest
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let workload = get "workload" in
      let seed = int_of_string (get "seed") in
      let seconds = float_of_string (get "seconds") in
      let trace = get "trace" = "1" in
      let dir = Option.value ~default:"perfbench/out" (List.assoc_opt "out" opts) in
      let exe = Option.value ~default:"_build/default/bin/batsched.exe" (List.assoc_opt "daemon" opts) in
      if List.mem_assoc "setup-only" opts then
        match workload with
        | "exact-table5" -> ignore (W_exact.setup ~seed : W_exact.load array)
        | "horizon-fleet" -> ignore (W_horizon.setup ~seed : W_horizon.load array)
        | "mc-fleet" -> ignore (W_mc.setup ~seed : int64 array)
        | "serve-mixed" -> W_serve.setup_only ~exe ~dir ~seed ~seconds
        | _ -> usage ()
      else begin
        let res = Res.create () in
        (match workload with
        | "exact-table5" -> W_exact.run ~seed ~seconds ~trace res
        | "horizon-fleet" -> W_horizon.run ~seed ~seconds ~trace res
        | "mc-fleet" -> W_mc.run ~seed ~seconds ~trace res
        | "serve-mixed" -> W_serve.run ~exe ~dir ~seed ~seconds ~trace res
        | _ -> usage ());
        if trace then begin
          let rows = Tr.layer_table () in
          Tr.print_layer_table rows;
          let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
          Tr.write_trace path;
          Printf.printf "trace: %d spans written to %s\n" !Tr.count path;
          Res.info res "layer_table"
            (Obs.Json.List
               (List.map
                  (fun (r : Tr.row) ->
                    Obs.Json.Obj
                      [
                        ("span", Obs.Json.String r.r_name);
                        ("calls", Obs.Json.Int r.calls);
                        ("busy_ms", Obs.Json.Float (float_of_int r.busy_ns *. 1e-6));
                        ("self_ms", Obs.Json.Float (float_of_int r.self_ns *. 1e-6));
                      ])
                  rows));
          Res.info res "trace_file" (Obs.Json.String path)
        end;
        print_endline ("RESULT " ^ Obs.Json.to_string (Res.json res))
      end
  | [] -> usage ()
