(* Clock, in-memory span recorder and the summary statistics every
   workload reports.

   Spans are recorded only from the benchmark's own files, around the
   calls it makes into a layer's public functions.  They stay in memory
   until the run ends; [write_trace] then emits a Chrome trace_event
   document (Perfetto opens it) and [layer_table] the calls / busy /
   self-time table per span name. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* ---------------------------------------------------------------- *)
(* Spans                                                             *)

type span = {
  name : string;
  start : int;
  mutable stop : int;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  rid : int;  (* request id (serve-mixed), -1 otherwise *)
}

let enabled = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let current () = match !stack with [] -> -1 | p :: _ -> p

(* [span name f] times [f ()] as a child of the innermost open span.
   With tracing off it is a direct call. *)
let span name f =
  if not !enabled then f ()
  else begin
    let i = push { name; start = now_ns (); stop = 0; parent = current (); rid = -1 } in
    stack := i :: !stack;
    Fun.protect
      ~finally:(fun () ->
        !spans.(i).stop <- now_ns ();
        stack := List.tl !stack)
      f
  end

(* An already-measured span (a request's life in the daemon, timed by
   the open-loop client), under the innermost open span. *)
let record ?(rid = -1) name ~start ~stop =
  if !enabled then
    ignore (push { name; start; stop; parent = current (); rid } : int)

(* The timed passes of a run: [pass ()] repeated until [seconds] have
   passed, all untraced; or, with [trace], half untraced and then half
   traced, so the two medians give the tracing overhead. *)
let passes ~seconds ~trace pass =
  let repeat seconds =
    let t0 = now_ns () in
    let rec go acc =
      let acc = pass () :: acc in
      if float_of_int (now_ns () - t0) *. 1e-9 >= seconds then List.rev acc else go acc
    in
    go []
  in
  if not trace then (repeat seconds, [])
  else begin
    let plain = repeat (seconds /. 2.0) in
    enabled := true;
    let traced = Fun.protect ~finally:(fun () -> enabled := false) (fun () -> repeat (seconds /. 2.0)) in
    (plain, traced)
  end

(* Per span name: calls, busy time (sum of durations) and self time
   (duration minus the union of its children's intervals). *)
type row = { r_name : string; calls : int; busy_ns : int; self_ns : int }

let layer_table () =
  let n = !count in
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let s = !spans.(i) in
    if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent)
  done;
  let covered i =
    let iv =
      List.sort compare
        (List.map (fun k -> (!spans.(k).start, !spans.(k).stop)) kids.(i))
    in
    fst
      (List.fold_left
         (fun (acc, hi) (a, b) ->
           let a = max a hi in
           if b > a then (acc + (b - a), b) else (acc, hi))
         (0, min_int) iv)
  in
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let d = s.stop - s.start in
    let c, b, sf =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.name)
    in
    Hashtbl.replace tbl s.name (c + 1, b + d, sf + (d - covered i))
  done;
  Hashtbl.fold
    (fun r_name (calls, busy_ns, self_ns) acc ->
      { r_name; calls; busy_ns; self_ns } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.busy_ns a.busy_ns)

let print_layer_table rows =
  Printf.printf "%-34s %9s %12s %12s\n" "span" "calls" "busy ms" "self ms";
  List.iter
    (fun r ->
      Printf.printf "%-34s %9d %12.3f %12.3f\n" r.r_name r.calls
        (float_of_int r.busy_ns *. 1e-6)
        (float_of_int r.self_ns *. 1e-6))
    rows

(* Chrome trace_event JSON: synchronous spans as complete ("X") events
   on one track, request spans as async ("b"/"e") events keyed by their
   request id so overlapping requests render side by side. *)
let write_trace path =
  let oc = open_out path in
  let t0 = if !count = 0 then 0 else !spans.(0).start in
  let us ns = float_of_int (ns - t0) /. 1000.0 in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if i > 0 then output_char oc ',';
    let name = Obs.Json.to_string (Obs.Json.String s.name) in
    if s.rid < 0 then
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%d,\"parent\":%d}}"
        name (us s.start)
        (float_of_int (s.stop - s.start) /. 1000.0)
        i s.parent
    else
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":\"request\",\"ph\":\"b\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":2,\"args\":{\"span\":%d,\"parent\":%d,\"request\":%d}},{\"name\":%s,\"cat\":\"request\",\"ph\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":2}"
        name s.rid (us s.start) i s.parent s.rid name s.rid (us s.stop)
  done;
  output_string oc "]}\n";
  close_out oc

(* ---------------------------------------------------------------- *)
(* Statistics                                                        *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a non-empty sample, [p] in [0, 1]. *)
let quantile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Tr.quantile: empty sample";
  let x = p *. float_of_int (n - 1) in
  let i = truncate x in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest value, at percentile 100 (n - 10) / n.  With fewer
   than eleven samples there is no such percentile and the maximum is
   reported, at 100. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Tr.tail: empty sample";
  if n < 11 then (s.(n - 1), 100.0)
  else (s.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* The tail of each group (a pass, a window of requests), then the
   median over groups: one stall moves one group's tail, not the run's.
   Returns the value and the median percentile. *)
let median_tail groups =
  let ts = Array.map tail groups in
  (median (Array.map fst ts), median (Array.map snd ts))

(* Repeat [f] over the inputs until at least [min_s] seconds are timed;
   nanoseconds per input. *)
let per_item_ns ?(min_s = 0.05) n f =
  let reps = ref 0 and timed = ref 0 in
  while float_of_int !timed *. 1e-9 < min_s do
    timed := !timed + f ();
    incr reps
  done;
  float_of_int !timed /. float_of_int (!reps * max 1 n)

(* Peak resident set (VmHWM) of a process, in MB. *)
let vm_hwm_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
