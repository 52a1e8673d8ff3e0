(* Tests for the numerics substrate: root finding and ODE integration. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Rootfind                                                            *)
(* ------------------------------------------------------------------ *)

let test_bisect_simple () =
  let r = Numerics.Rootfind.bisect ~f:(fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_close 1e-9 "sqrt 2" (sqrt 2.0) r

let test_brent_simple () =
  let r = Numerics.Rootfind.brent ~f:(fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_close 1e-9 "sqrt 2" (sqrt 2.0) r

let test_brent_transcendental () =
  (* x = cos x has a unique root near 0.739085 *)
  let r = Numerics.Rootfind.brent ~f:(fun x -> x -. cos x) 0.0 1.0 in
  check_close 1e-9 "dottie number" 0.7390851332151607 r

let test_root_at_endpoint () =
  check_float "left endpoint" 0.0 (Numerics.Rootfind.brent ~f:(fun x -> x) 0.0 1.0);
  check_float "right endpoint" 1.0
    (Numerics.Rootfind.brent ~f:(fun x -> x -. 1.0) 0.25 1.0)

let test_no_bracket () =
  Alcotest.check_raises "same sign" Numerics.Rootfind.No_bracket (fun () ->
      ignore (Numerics.Rootfind.brent ~f:(fun x -> (x *. x) +. 1.0) 0.0 1.0));
  Alcotest.check_raises "same sign bisect" Numerics.Rootfind.No_bracket
    (fun () ->
      ignore (Numerics.Rootfind.bisect ~f:(fun x -> (x *. x) +. 1.0) 0.0 1.0))

let test_first_crossing_picks_first () =
  (* sin has roots at pi and 2 pi in [1, 7]; the first must be found *)
  match Numerics.Rootfind.find_first_crossing ~f:sin 1.0 7.0 with
  | Some r -> check_close 1e-9 "pi" Float.pi r
  | None -> Alcotest.fail "missed the crossing"

let test_first_crossing_none () =
  Alcotest.(check (option (float 0.0)))
    "no crossing" None
    (Numerics.Rootfind.find_first_crossing ~f:(fun x -> 1.0 +. (x *. x)) 0.0 5.0)

let test_first_crossing_narrow_spike () =
  (* a sign dip of width ~0.02 inside [0, 10] requires enough coarse
     samples; with coarse=2048 it must be found *)
  let f x = if x > 5.0 && x < 5.02 then -1.0 else 1.0 in
  match Numerics.Rootfind.find_first_crossing ~coarse:2048 ~f 0.0 10.0 with
  | Some r -> Alcotest.(check bool) "in dip" true (r >= 5.0 && r <= 5.02)
  | None -> Alcotest.fail "missed the dip"

let prop_brent_finds_root_of_random_cubic =
  QCheck.Test.make ~name:"brent solves random monotone cubics" ~count:200
    QCheck.(pair (QCheck.float_range (-5.0) 5.0) (QCheck.float_range 0.1 3.0))
    (fun (shift, scale) ->
      (* f(x) = scale*(x - shift)^3 is monotone with root at shift *)
      let f x = scale *. ((x -. shift) ** 3.0) in
      let r = Numerics.Rootfind.brent ~f (-6.0) 6.0 in
      Float.abs (r -. shift) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Ode                                                                 *)
(* ------------------------------------------------------------------ *)

let decay : Numerics.Ode.system = fun ~t:_ ~y -> [| -.y.(0) |]

let test_rk4_exponential () =
  let y = Numerics.Ode.integrate ~f:decay ~t0:0.0 ~t1:1.0 ~dt:0.01 [| 1.0 |] in
  check_close 1e-8 "e^-1" (Float.exp (-1.0)) y.(0)

let test_euler_less_accurate_than_rk4 () =
  let exact = Float.exp (-1.0) in
  let e =
    Numerics.Ode.integrate ~step:Numerics.Ode.euler_step ~f:decay ~t0:0.0
      ~t1:1.0 ~dt:0.01 [| 1.0 |]
  in
  let r = Numerics.Ode.integrate ~f:decay ~t0:0.0 ~t1:1.0 ~dt:0.01 [| 1.0 |] in
  Alcotest.(check bool)
    "rk4 beats euler" true
    (Float.abs (r.(0) -. exact) < Float.abs (e.(0) -. exact))

let test_rk4_fourth_order () =
  (* halving dt should shrink the error by ~2^4 *)
  let exact = Float.exp (-2.0) in
  let err dt =
    let y = Numerics.Ode.integrate ~f:decay ~t0:0.0 ~t1:2.0 ~dt [| 1.0 |] in
    Float.abs (y.(0) -. exact)
  in
  let ratio = err 0.1 /. err 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "order ~16 (got %.1f)" ratio)
    true
    (ratio > 8.0 && ratio < 32.0)

let test_two_dimensional_system () =
  (* harmonic oscillator: x'' = -x; one full period returns the state *)
  let f : Numerics.Ode.system = fun ~t:_ ~y -> [| y.(1); -.y.(0) |] in
  let y =
    Numerics.Ode.integrate ~f ~t0:0.0 ~t1:(2.0 *. Float.pi) ~dt:0.001
      [| 1.0; 0.0 |]
  in
  check_close 1e-6 "full period x" 1.0 y.(0);
  check_close 1e-6 "full period v" 0.0 y.(1)

let test_integrate_until_event () =
  (* constant descent y' = -1 from 1; event y <= 0.25 at t = 0.75 *)
  let f : Numerics.Ode.system = fun ~t:_ ~y:_ -> [| -1.0 |] in
  let t, y =
    Numerics.Ode.integrate_until ~f ~t0:0.0 ~t_max:10.0 ~dt:0.1
      ~stop:(fun ~t:_ ~y -> y.(0) <= 0.25)
      [| 1.0 |]
  in
  check_close 1e-3 "event time" 0.75 t;
  check_close 1e-3 "event state" 0.25 y.(0)

let test_integrate_until_no_event () =
  let f : Numerics.Ode.system = fun ~t:_ ~y:_ -> [| 1.0 |] in
  let t, _ =
    Numerics.Ode.integrate_until ~f ~t0:0.0 ~t_max:2.0 ~dt:0.1
      ~stop:(fun ~t:_ ~y -> y.(0) < -1.0)
      [| 0.0 |]
  in
  check_float "runs to t_max" 2.0 t

let test_bad_dt () =
  Alcotest.check_raises "dt = 0"
    (Invalid_argument "Ode.integrate: dt must be positive") (fun () ->
      ignore (Numerics.Ode.integrate ~f:decay ~t0:0.0 ~t1:1.0 ~dt:0.0 [| 1.0 |]))

let () =
  Alcotest.run "numerics"
    [
      ( "rootfind",
        [
          Alcotest.test_case "bisect sqrt2" `Quick test_bisect_simple;
          Alcotest.test_case "brent sqrt2" `Quick test_brent_simple;
          Alcotest.test_case "brent transcendental" `Quick test_brent_transcendental;
          Alcotest.test_case "roots at endpoints" `Quick test_root_at_endpoint;
          Alcotest.test_case "no bracket raises" `Quick test_no_bracket;
          Alcotest.test_case "first crossing is first" `Quick
            test_first_crossing_picks_first;
          Alcotest.test_case "no crossing" `Quick test_first_crossing_none;
          Alcotest.test_case "narrow spike" `Quick test_first_crossing_narrow_spike;
          QCheck_alcotest.to_alcotest prop_brent_finds_root_of_random_cubic;
        ] );
      ( "ode",
        [
          Alcotest.test_case "rk4 exponential decay" `Quick test_rk4_exponential;
          Alcotest.test_case "euler worse than rk4" `Quick
            test_euler_less_accurate_than_rk4;
          Alcotest.test_case "rk4 is 4th order" `Quick test_rk4_fourth_order;
          Alcotest.test_case "harmonic oscillator" `Quick test_two_dimensional_system;
          Alcotest.test_case "integrate_until event" `Quick test_integrate_until_event;
          Alcotest.test_case "integrate_until no event" `Quick
            test_integrate_until_no_event;
          Alcotest.test_case "dt validation" `Quick test_bad_dt;
        ] );
    ]
