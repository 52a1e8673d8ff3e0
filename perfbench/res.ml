(* What one run reports: the operations it attempted and how many
   failed a check, its metrics, the deterministic work counters, and
   free-form details (tail percentiles, per-phase counts, the layer
   table). *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* first few, newest first *)
  mutable metrics : (string * float * string) list;
  mutable counters : (string * float) list;
  mutable nondeterministic : string list;
  mutable info : (string * Obs.Json.t) list;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    metrics = [];
    counters = [];
    nondeterministic = [];
    info = [];
  }

(* A check on an operation already counted: a failure turns the
   operation failed without counting another attempt. *)
let check r ok what =
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 20 then r.failures <- what :: r.failures
  end

(* One operation attempted; [ok = false] counts it failed. *)
let op r ok what =
  r.attempted <- r.attempted + 1;
  check r ok what

let metric r name unit v = r.metrics <- r.metrics @ [ (name, v, unit) ]

(* trace.overhead_pct: traced minus untraced median of the workload's
   primary timing, as a share of the untraced one. *)
let overhead r plain traced =
  let med l = Tr.median (Array.of_list l) in
  metric r "trace.overhead_pct" "%" (100.0 *. (med traced -. med plain) /. med plain)

let info r name j = r.info <- r.info @ [ (name, j) ]

(* A deterministic work counter: every pass of the run must produce the
   same value; a mismatch is nondeterminism, not noise. *)
let counter r name values =
  match values with
  | [] -> ()
  | v :: rest ->
      if List.exists (fun w -> w <> v) rest then
        r.nondeterministic <- r.nondeterministic @ [ name ];
      r.counters <- r.counters @ [ (name, v) ]

let json r =
  let open Obs.Json in
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Int (int_of_float v)
    else Float v
  in
  Obj
    [
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("failures", List (List.rev_map (fun s -> String s) r.failures));
      ( "metrics",
        Obj
          (List.map
             (fun (n, v, u) -> (n, Obj [ ("value", Float v); ("unit", String u) ]))
             r.metrics) );
      ("counters", Obj (List.map (fun (n, v) -> (n, num v)) r.counters));
      ( "nondeterministic",
        List (List.map (fun s -> String s) r.nondeterministic) );
      ("info", Obj r.info);
    ]
