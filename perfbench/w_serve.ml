(* serve-mixed: the real [batsched serve] daemon at its default config
   (one domain), run as a child process so client and daemon never
   share a GC, fed from this process over [conns] connections.

   Phase A is an open loop: requests arrive on a seeded Poisson
   schedule at the fixed [rate], and each latency runs from the
   request's due time, so a stall also charges the requests queued
   behind it.  The rate is fixed here and never recomputed per run:
   about a tenth of the phase-B capacity measured on a 2-core x86-64
   container (~1100 req/s).  Nearer half capacity, host CPU contention
   on that machine turned into queueing: the phase-A median moved
   between 1 and 4 ms across runs, and stalls filled the default
   per-connection in-flight cap (16) so the daemon refused requests.
   Phase B is a closed loop against a fresh daemon, [window] requests
   outstanding per connection; its passes of [pass_requests]
   completions give the capacity, and its latencies are the gated ones
   (see [e2e]). *)

module J = Obs.Json

let rate = 100.0
let conns = 2
let window = 8
let pass_requests = 100
let checked_schedules = 4

(* Phase B's request budget: about twice what the daemon answers in a
   phase at this machine's capacity.  A daemon that runs out of it ends
   the phase early; the passes still measure its capacity. *)
let phase_b_requests = 8000

(* ---------------------------------------------------------------- *)
(* The seeded request mix                                            *)

type req = {
  id : int;
  line : string;
  kind : string;  (* schedule | compare | montecarlo | ensemble | cache_hit *)
  spec : string option;  (* schedule on a generated spec: checked in-process *)
  orig : int;  (* index of the request this one repeats, or its own *)
}

let named = [| "cl_500"; "cl_alt"; "ils_500"; "ils_alt"; "ils_r1"; "ils_r2"; "ill_500" |]

(* The mix repeats a fixed cycle of 20 requests, so its proportions do
   not move with the seed (a latency quantile that fell between request
   classes would): 5 exact repeats of an earlier request (R, the
   response cache answers them), 6 exact [schedule]s on generated spec
   loads (S), 2 [compare]s (C) each followed by a [schedule] of the same
   load (s, the shared memo answers its search), 2 small [ensemble]s (E)
   and 3 small [montecarlo]s (M).  Ordered by cost the classes fill
   0-25% (R), 25-65% (S, s), 65-85% (E, C) and 85-100% (M) of the
   latencies, so the median and the p90 tail each fall inside a class.
   The seed draws the loads, the repeated requests and the sub-seeds. *)
let cycle = "SRCsMSRESMRCsSRMESRS"

let generate ~seed ~first_id n =
  let g = Prng.Splitmix.create (Int64.of_int seed) in
  let out = Array.make n { id = 0; line = ""; kind = ""; spec = None; orig = 0 } in
  let unique = Array.make n 0 and n_unique = ref 0 in
  (* Spec loads draw 0.25, 0.5 or 1 A jobs: their exact search stays
     under about 5 ms.  The 0.25/0.5 A family has a rare heavy tail (a
     400 ms solve in a few thousand), which would make the open-loop
     tail a lottery over which seed draws it; exact-table5 keeps that
     family. *)
  let spec () =
    Loads.Spec.to_string
      (Loads.Random_load.intermitted ~seed:(Prng.Splitmix.next_int64 g) ~jobs:40
         ~currents:[| 0.25; 0.5; 1.0 |] ())
  in
  let load_field s = Printf.sprintf {|"spec":%s|} (J.to_string (J.String s)) in
  let last_field = ref "" in
  for k = 0 to n - 1 do
    let id = first_id + k in
    let mk kind ?spec line = { id; line; kind; spec; orig = k } in
    let r =
      match cycle.[k mod String.length cycle] with
      | 'R' when !n_unique > 0 ->
          let j = unique.(Prng.Splitmix.int g !n_unique) in
          { (out.(j)) with kind = "cache_hit"; orig = j }
      | 'S' | 'R' ->
          let s = spec () in
          mk "schedule" ~spec:s
            (Printf.sprintf {|{"id":%d,"op":"schedule",%s,"n":2}|} id (load_field s))
      | 'C' ->
          last_field :=
            if Prng.Splitmix.int g 4 = 0 then
              Printf.sprintf {|"load":"%s"|} (Prng.Splitmix.choose g named)
            else load_field (spec ());
          mk "compare" (Printf.sprintf {|{"id":%d,"op":"compare",%s,"n":2}|} id !last_field)
      | 's' -> mk "schedule" (Printf.sprintf {|{"id":%d,"op":"schedule",%s,"n":2}|} id !last_field)
      | 'M' ->
          mk "montecarlo"
            (Printf.sprintf {|{"id":%d,"op":"montecarlo","seed":%d,"samples":50,"slots":40}|} id
               (Prng.Splitmix.int g 1_000_000))
      | _ ->
          mk "ensemble"
            (Printf.sprintf
               {|{"id":%d,"op":"ensemble","loads":2,"jobs_per_load":40,"include_optimal":false,"seed":%d}|}
               id (Prng.Splitmix.int g 1_000_000))
    in
    out.(k) <- r;
    if r.kind <> "cache_hit" then begin
      unique.(!n_unique) <- k;
      incr n_unique
    end
  done;
  out

(* Poisson arrival offsets (seconds) inside [duration]. *)
let arrivals ~seed ~duration =
  let g = Prng.Splitmix.create (Int64.of_int (seed + 7_000_001)) in
  let rec go t acc =
    let t = t -. (log (1.0 -. Prng.Splitmix.float g 1.0) /. rate) in
    if t > duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

(* ---------------------------------------------------------------- *)
(* The daemon and its connections                                    *)

type daemon = { pid : int; sock : string }

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* With two or more CPUs the client runs on CPU 0 and the daemon on
   CPU 1.  Left to the scheduler, a response wakes the client on the
   daemon's CPU, where it waits behind the daemon's compute: runs showed
   generator lateness (p99) of 5-9 ms that pinning brought under 1.5 ms. *)
let taskset =
  let on_path dir = Sys.file_exists (Filename.concat dir "taskset") in
  if Domain.recommended_domain_count () < 2 then None
  else
    List.find_opt on_path (String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH")))
    |> Option.map (fun dir -> Filename.concat dir "taskset")

let pin_client () =
  match taskset with
  | Some ts ->
      ignore (Sys.command (Printf.sprintf "%s -pc 0 %d > /dev/null" (Filename.quote ts) (Unix.getpid ())))
  | None -> ()

let counter = ref 0

let spawn ~exe ~dir ~stats =
  incr counter;
  let sock = Filename.concat dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !counter) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let serve = [ exe; "serve"; "--socket"; sock ] @ if stats then [ "--stats" ] else [] in
  let prog, args =
    match taskset with Some ts -> (ts, ts :: "-c" :: "1" :: serve) | None -> (exe, serve)
  in
  let pid = Unix.create_process prog (Array.of_list args) null null null in
  Unix.close null;
  live := pid :: !live;
  { pid; sock }

let connect d =
  let t0 = Tr.now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if Tr.secs_since t0 > 10.0 then failwith "serve: daemon never accepted a connection";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun p -> p <> d.pid) !live;
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes of an incomplete response line *)
  pending : int Queue.t;  (* request slots awaiting their response, in order *)
}

let open_conn d = { fd = connect d; buf = Buffer.create 4096; pending = Queue.create () }

let send c slot line =
  let s = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0;
  Queue.push slot c.pending

let chunk = Bytes.create 65536

(* Read what is available; call [on_line slot line] per complete
   response. *)
let drain c on_line =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "serve: daemon closed a connection";
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get chunk i = '\n' then begin
      Buffer.add_subbytes c.buf chunk !start (i - !start);
      let line = Buffer.contents c.buf in
      Buffer.clear c.buf;
      start := i + 1;
      on_line (Queue.pop c.pending) line
    end
  done;
  Buffer.add_subbytes c.buf chunk !start (n - !start)

(* One request/response outside the measured phases ([stats]). *)
let call c line =
  send c (-1) line;
  let out = ref None in
  while !out = None do
    drain c (fun _ l -> out := Some l)
  done;
  Option.get !out

(* ---------------------------------------------------------------- *)
(* Phases                                                            *)

type phase = {
  reqs : req array;  (* the requests sent, in send order *)
  due : int array;  (* ns; phase A only *)
  sent : int array;
  recv : int array;
  resp : string array;
  mutable max_outstanding : int;
  mutable start : int;
}

let new_phase reqs =
  let n = Array.length reqs in
  {
    reqs;
    due = Array.make n 0;
    sent = Array.make n 0;
    recv = Array.make n 0;
    resp = Array.make n "";
    max_outstanding = 0;
    start = 0;
  }

let on_response p slot line =
  p.recv.(slot) <- Tr.now_ns ();
  p.resp.(slot) <- line;
  Tr.record ~rid:p.reqs.(slot).id ("request." ^ p.reqs.(slot).kind) ~start:p.due.(slot)
    ~stop:p.recv.(slot)

(* A daemon that stops answering fails the run instead of hanging it. *)
let give_up_after = 30.0

let check_alive ~until =
  if Tr.now_ns () > until then failwith "serve: the daemon stopped answering"

let wait_readable cs timeout =
  let fds = List.map (fun c -> c.fd) cs in
  let r, _, _ =
    try Unix.select fds [] [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.filter (fun c -> List.mem c.fd r) cs

let open_loop cs reqs offsets =
  let n = Array.length offsets in
  let p = new_phase (Array.sub reqs 0 n) in
  let outstanding = ref 0 and next = ref 0 in
  Tr.span "phase_a" (fun () ->
      p.start <- Tr.now_ns ();
      Array.iteri (fun i o -> p.due.(i) <- p.start + int_of_float (o *. 1e9)) offsets;
      let cs_l = Array.to_list cs in
      let until =
        p.start + int_of_float ((give_up_after +. if n = 0 then 0.0 else offsets.(n - 1)) *. 1e9)
      in
      while !next < n || !outstanding > 0 do
        check_alive ~until;
        let now = Tr.now_ns () in
        while !next < n && p.due.(!next) <= now do
          let i = !next in
          p.sent.(i) <- Tr.now_ns ();
          send cs.(i mod Array.length cs) i p.reqs.(i).line;
          incr outstanding;
          p.max_outstanding <- max p.max_outstanding !outstanding;
          incr next
        done;
        (* poll without sleeping: a sleeping client wakes late on a
           virtual CPU (runs showed a p99 generator lateness of 6 ms),
           which would be charged to every request due meanwhile *)
        List.iter
          (fun c ->
            drain c (fun slot line ->
                on_response p slot line;
                decr outstanding))
          (wait_readable cs_l 0.0)
      done);
  p

let closed_loop cs reqs ~seconds =
  let p = new_phase reqs in
  let n = Array.length reqs in
  let next = ref 0 and outstanding = ref 0 in
  let cs_l = Array.to_list cs in
  let send_next c =
    if !next < n then begin
      let i = !next in
      p.due.(i) <- Tr.now_ns ();
      p.sent.(i) <- p.due.(i);
      send c i reqs.(i).line;
      incr next;
      incr outstanding;
      p.max_outstanding <- max p.max_outstanding !outstanding
    end
  in
  Tr.span "phase_b" (fun () ->
      p.start <- Tr.now_ns ();
      let deadline = p.start + int_of_float (seconds *. 1e9) in
      Array.iter (fun c -> for _ = 1 to window do send_next c done) cs;
      let until = deadline + int_of_float (give_up_after *. 1e9) in
      while !outstanding > 0 do
        check_alive ~until;
        List.iter
          (fun c ->
            drain c (fun slot line ->
                on_response p slot line;
                decr outstanding;
                if Tr.now_ns () < deadline then send_next c))
          (wait_readable cs_l 1.0)
      done);
  { p with reqs = Array.sub reqs 0 !next }

let answered p = List.filter (fun i -> p.recv.(i) > 0) (List.init (Array.length p.reqs) Fun.id)

(* ---------------------------------------------------------------- *)
(* Checks                                                            *)

type counts = { mutable shed : int; mutable degraded : int; mutable errors : int }

let check_phase res ~label counts p =
  let ok = ref 0 and bad = ref 0 in
  let first_answer = Hashtbl.create 256 in
  Array.iteri
    (fun i r ->
      let line = p.resp.(i) in
      let good =
        match Serve.Protocol.parse_response line with
        | Error _ -> counts.errors <- counts.errors + 1; false
        | Ok j -> (
            match (J.member "ok" j, J.member "degraded" j) with
            | Some (J.Bool true), Some (J.Bool false) -> true
            | Some (J.Bool true), _ -> counts.degraded <- counts.degraded + 1; false
            | _ ->
                if J.member "retry_after_ms" j <> None then counts.shed <- counts.shed + 1
                else counts.errors <- counts.errors + 1;
                false)
      in
      (* repeats are byte-identical to the first answer of their line *)
      let same =
        match Hashtbl.find_opt first_answer r.line with
        | Some a -> a = line
        | None -> Hashtbl.add first_answer r.line line; true
      in
      if good && same then incr ok else incr bad;
      Res.op res (good && same)
        (Printf.sprintf "serve %s: request %d (%s) answered %s" label r.id r.kind
           (if String.length line > 160 then String.sub line 0 160 else line)))
    p.reqs;
  Res.info res ("phase_" ^ label)
    (J.Obj
       [
         ("sent", J.Int (Array.length p.reqs));
         ("succeeded", J.Int !ok);
         ("failed", J.Int !bad);
       ])

(* A sample of exact [schedule] answers equals an in-process search. *)
let check_schedules res p =
  let disc = Dkibam.Discretization.paper_b1 in
  let checked = ref 0 in
  Array.iteri
    (fun i r ->
      match r.spec with
      | Some spec when !checked < checked_schedules && r.kind = "schedule" ->
          incr checked;
          let a =
            Loads.Arrays.make ~time_step:Batsched.Experiments.time_step
              ~charge_unit:Batsched.Experiments.charge_unit (Loads.Spec.parse spec)
          in
          let o = Sched.Optimal.search ~n_batteries:2 disc a in
          let got =
            match Serve.Protocol.parse_response p.resp.(i) with
            | Ok j -> J.member "result" j
            | Error _ -> None
          in
          let int_of = function Some (J.Int v) -> Some v | _ -> None in
          let ok =
            match got with
            | Some g ->
                int_of (J.member "lifetime_steps" g) = Some o.lifetime_steps
                && int_of (J.member "stranded_units" g) = Some o.stranded_units
                && J.member "schedule" g
                   = Some (J.List (Array.to_list (Array.map (fun b -> J.Int b) o.schedule)))
            | None -> false
          in
          Res.op res ok (Printf.sprintf "serve: schedule %d differs from in-process search" r.id)
      | _ -> ())
    p.reqs

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)

let latencies_ms p idx = Array.of_list (List.map (fun i -> float_of_int (p.recv.(i) - p.due.(i)) *. 1e-6) idx)

let capacity_passes p =
  let t = Tr.sorted (Array.of_list (List.map (fun i -> p.recv.(i)) (answered p))) in
  let n = Array.length t / pass_requests in
  Array.init n (fun k ->
      let prev = if k = 0 then p.start else t.((k * pass_requests) - 1) in
      float_of_int (t.(((k + 1) * pass_requests) - 1) - prev) *. 1e-9)

let hist_p50 j op =
  match Option.bind (J.member "latency_us" j) (J.member op) with
  | Some (J.List buckets) ->
      let bs =
        List.filter_map
          (function
            | J.List [ J.Int ub; J.Int c ] -> Some (float_of_int ub, c)
            | J.List [ J.Null; J.Int c ] -> Some (infinity, c)
            | _ -> None)
          buckets
      in
      let total = List.fold_left (fun a (_, c) -> a + c) 0 bs in
      let rec go acc = function
        | [] -> 0.0
        | (ub, c) :: rest -> if 2 * (acc + c) >= total then ub else go (acc + c) rest
      in
      go 0 bs
  | _ -> 0.0

let ratio j section =
  match Option.bind (J.member "result" j) (J.member section) with
  | Some s -> (
      match (J.member "hits" s, J.member "lookups" s) with
      | Some (J.Int h), Some (J.Int l) when l > 0 -> float_of_int h /. float_of_int l
      | _ -> 0.0)
  | None -> 0.0

(* Protocol functions replayed in-process on the phase's own frames. *)
let replay_protocol res p =
  let frames = Array.map (fun r -> r.line) p.reqs in
  let parsed =
    Array.map
      (fun f -> match Serve.Protocol.parse_request f with Ok r -> r | Error _ -> failwith "serve: bad frame")
      frames
  in
  let results =
    Array.map
      (fun l ->
        match Serve.Protocol.parse_response l with
        | Ok j -> (J.member "id" j, Option.map J.to_string (J.member "result" j))
        | Error _ -> (None, None))
      p.resp
  in
  let us n f = Tr.per_item_ns ~min_s:0.05 n f /. 1e3 in
  let timed f =
    let t = Tr.now_ns () in
    f ();
    Tr.now_ns () - t
  in
  let n = Array.length frames in
  Res.metric res "protocol.parse_us" "us"
    (us n (fun () -> timed (fun () -> Array.iter (fun f -> ignore (Sys.opaque_identity (Serve.Protocol.parse_request f))) frames)));
  Res.metric res "protocol.cache_key_us" "us"
    (us n (fun () -> timed (fun () -> Array.iter (fun r -> ignore (Sys.opaque_identity (Serve.Protocol.cache_key r))) parsed)));
  Res.metric res "protocol.response_us" "us"
    (us n (fun () ->
         timed (fun () ->
             Array.iter
               (function
                 | Some id, Some payload -> ignore (Sys.opaque_identity (Serve.Protocol.ok_response ~id payload))
                 | _ -> ())
               results)))

(* Sched.Memo find/add on keys shaped like the search's: battery states
   at the decision points of the checked schedules. *)
let replay_memo res p =
  let disc = Dkibam.Discretization.paper_b1 in
  let keys = ref [] in
  Array.iter
    (fun r ->
      match r.spec with
      | Some spec when List.length !keys < 4096 ->
          let a =
            Loads.Arrays.make ~time_step:Batsched.Experiments.time_step
              ~charge_unit:Batsched.Experiments.charge_unit (Loads.Spec.parse spec)
          in
          let o =
            Sched.Simulator.simulate ~trace_every:3 ~n_batteries:2 ~policy:Sched.Policy.Best_of disc a
          in
          List.iter
            (fun (s : Sched.Simulator.sample) ->
              keys :=
                Array.concat
                  ([| s.s_step |]
                  :: List.map
                       (fun (b : Dkibam.Battery.t) -> [| b.n_gamma; b.m_delta; b.recov_clock |])
                       (Array.to_list s.s_batteries))
                :: !keys)
            o.Sched.Simulator.samples
      | _ -> ())
    p.reqs;
  let keys = Array.of_list !keys in
  let n = Array.length keys in
  let fresh () = Sched.Memo.scope (Sched.Memo.create ~capacity:65536 ()) ~fingerprint:"perfbench" in
  let add_ns =
    Tr.per_item_ns n (fun () ->
        let sc = fresh () in
        let t = Tr.now_ns () in
        Array.iteri (fun i k -> Sched.Memo.add sc k i) keys;
        Tr.now_ns () - t)
  in
  let sc = fresh () in
  Array.iteri (fun i k -> Sched.Memo.add sc k i) keys;
  let find_ns =
    Tr.per_item_ns n (fun () ->
        let t = Tr.now_ns () in
        Array.iter (fun k -> ignore (Sys.opaque_identity (Sched.Memo.find sc k))) keys;
        Tr.now_ns () - t)
  in
  Res.metric res "memo.add_ns" "ns" add_ns;
  Res.metric res "memo.find_ns" "ns" find_ns

(* ---------------------------------------------------------------- *)

type setup = {
  d_a : daemon;  (* phase A *)
  d_b : daemon;  (* phase B, fresh *)
  c_a : conn array;
  c_b : conn array;
  reqs_a : req array;
  reqs_b : req array;
  offsets : float array;  (* phase-A arrival offsets, seconds *)
}

(* Share of the run each phase takes: A then B, or with tracing an
   untraced A, a traced A and a traced B. *)
let phase_share trace = if trace then 0.3 else 0.6

let setup ~exe ~dir ~seed ~seconds ~trace =
  pin_client ();
  let share = phase_share trace in
  let offsets = arrivals ~seed ~duration:(seconds *. share) in
  let reqs_a = generate ~seed ~first_id:0 (Array.length offsets) in
  let reqs_b = generate ~seed:(seed + 3_000_017) ~first_id:1_000_000 phase_b_requests in
  let d_a = spawn ~exe ~dir ~stats:trace and d_b = spawn ~exe ~dir ~stats:trace in
  let c_a = Array.init conns (fun _ -> open_conn d_a) in
  let c_b = Array.init conns (fun _ -> open_conn d_b) in
  { d_a; d_b; c_a; c_b; reqs_a; reqs_b; offsets }

let teardown s =
  Array.iter (fun c -> Unix.close c.fd) (Array.append s.c_a s.c_b);
  stop s.d_a;
  stop s.d_b

(* Latency median and tail of a phase, the tail per window of
   [tail_window] requests in send order (p90), median over windows. *)
let tail_window = 100

let latency p =
  let lat = latencies_ms p (answered p) in
  let n = Array.length lat in
  let windows =
    Array.init (max 1 (n / tail_window)) (fun k ->
        if n < tail_window then lat else Array.sub lat (k * tail_window) tail_window)
  in
  let tail, pct = Tr.median_tail windows in
  (Tr.median lat, tail, pct, n)

(* The gated latencies come from phase B, where the daemon always has
   queued work.  Phase A's open-loop latencies are reported beside
   them: at 100 req/s the daemon's virtual CPU idles between requests
   and wakes late under host contention, and runs of one seed moved the
   phase-A median between 1.1 and 3.3 ms. *)
let e2e res pa pb ~rss =
  let b50, btail, bpct, bn = latency pb in
  Res.metric res "op_p50_ms" "ms" b50;
  Res.metric res "op_tail_ms" "ms" btail;
  let passes = capacity_passes pb in
  let pass_s = Tr.median passes in
  Res.metric res "pass_s" "s" pass_s;
  Res.metric res "peak_rss_mb" "MB" rss;
  let a50, atail, apct, an = latency pa in
  let late = Array.of_list (List.init (Array.length pa.reqs) (fun i -> float_of_int (pa.sent.(i) - pa.due.(i)) *. 1e-6)) in
  Res.info res "op"
    (J.String
       (Printf.sprintf "one daemon request, phase B (closed loop, %d outstanding per connection)" window));
  Res.info res "samples" (J.Int bn);
  Res.info res "tail_percentile" (J.Float bpct);
  Res.info res "serve_capacity_rps" (J.Float (float_of_int pass_requests /. pass_s));
  Res.info res "capacity_passes" (J.Int (Array.length passes));
  Res.info res "rate_rps" (J.Float rate);
  Res.info res "serve_p50_ms" (J.Float a50);
  Res.info res "serve_tail_ms" (J.Float atail);
  Res.info res "serve_tail_percentile" (J.Float apct);
  Res.info res "serve_samples" (J.Int an);
  Res.info res "gen_late_p99_ms" (J.Float (Tr.quantile late 0.99))

let run ~exe ~dir ~seed ~seconds ~trace res =
  let s = setup ~exe ~dir ~seed ~seconds ~trace in
  Fun.protect ~finally:(fun () -> teardown s) @@ fun () ->
  let share = phase_share trace in
  let counts = { shed = 0; degraded = 0; errors = 0 } in
  if not trace then begin
    let pa = open_loop s.c_a s.reqs_a s.offsets in
    let rss = Tr.vm_hwm_mb (Some s.d_a.pid) in
    let pb = closed_loop s.c_b s.reqs_b ~seconds:(seconds *. 0.35) in
    check_phase res ~label:"a" counts pa;
    check_phase res ~label:"b" counts pb;
    check_schedules res pa;
    e2e res pa pb ~rss
  end
  else begin
    (* untraced phase A on a plain daemon, for the tracing overhead *)
    let d_u = spawn ~exe ~dir ~stats:false in
    let c_u = Array.init conns (fun _ -> open_conn d_u) in
    let pu =
      Fun.protect
        ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) c_u; stop d_u)
        (fun () -> open_loop c_u s.reqs_a s.offsets)
    in
    Tr.enabled := true;
    let pa = open_loop s.c_a s.reqs_a s.offsets in
    let stats_a = Result.get_ok (Serve.Protocol.parse_response (call s.c_a.(0) {|{"op":"stats"}|})) in
    let pb = closed_loop s.c_b s.reqs_b ~seconds:(seconds *. share) in
    Tr.enabled := false;
    check_phase res ~label:"untraced" counts pu;
    check_phase res ~label:"a" counts pa;
    check_phase res ~label:"b" counts pb;
    check_schedules res pa;
    let lat p = Array.to_list (latencies_ms p (answered p)) in
    Res.overhead res (lat pu) (lat pa);
    List.iter
      (fun kind ->
        let idx = List.filter (fun i -> pa.reqs.(i).kind = kind) (answered pa) in
        Res.metric res ("serve.latency_p50_ms." ^ kind) "ms"
          (if idx = [] then 0.0 else Tr.median (latencies_ms pa idx)))
      [ "schedule"; "compare"; "montecarlo"; "ensemble"; "cache_hit" ];
    let result = Option.value ~default:J.Null (J.member "result" stats_a) in
    List.iter
      (fun op -> Res.metric res ("serve.daemon_p50_us." ^ op) "us" (hist_p50 result op))
      [ "schedule"; "compare"; "montecarlo"; "ensemble" ];
    Res.metric res "serve.cache_hit_rate" "ratio" (ratio stats_a "cache");
    Res.metric res "serve.memo_hit_rate" "ratio" (ratio stats_a "memo");
    Res.metric res "serve.queue_depth_max" "count" (float_of_int pa.max_outstanding);
    Res.metric res "serve.shed" "count" (float_of_int counts.shed);
    Res.metric res "serve.degraded" "count" (float_of_int counts.degraded);
    Res.metric res "serve.errors" "count" (float_of_int counts.errors);
    let late = Array.of_list (List.init (Array.length pa.reqs) (fun i -> float_of_int (pa.sent.(i) - pa.due.(i)) *. 1e-6)) in
    Res.metric res "gen.late_p99_ms" "ms" (Tr.quantile late 0.99);
    replay_protocol res pa;
    replay_memo res pa
  end

(* Set-up alone: request generation, daemon spawn to first connect. *)
let setup_only ~exe ~dir ~seed ~seconds =
  teardown (setup ~exe ~dir ~seed ~seconds ~trace:false)
