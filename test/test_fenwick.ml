module F = Dvf_util.Fenwick

let test_empty () =
  let t = F.create 10 in
  Alcotest.(check int) "size" 10 (F.size t);
  Alcotest.(check int) "prefix" 0 (F.prefix_sum t 9);
  Alcotest.(check int) "total" 0 (F.total t)

let test_single_add () =
  let t = F.create 8 in
  F.add t 3 5;
  Alcotest.(check int) "before" 0 (F.prefix_sum t 2);
  Alcotest.(check int) "at" 5 (F.prefix_sum t 3);
  Alcotest.(check int) "after" 5 (F.prefix_sum t 7)

let test_range_sum () =
  let t = F.create 10 in
  for i = 0 to 9 do
    F.add t i (i + 1)
  done;
  Alcotest.(check int) "full" 55 (F.range_sum t ~lo:0 ~hi:9);
  Alcotest.(check int) "middle" (3 + 4 + 5) (F.range_sum t ~lo:2 ~hi:4);
  Alcotest.(check int) "empty range" 0 (F.range_sum t ~lo:5 ~hi:4);
  Alcotest.(check int) "single" 7 (F.range_sum t ~lo:6 ~hi:6)

let test_negative_delta () =
  let t = F.create 4 in
  F.add t 1 3;
  F.add t 1 (-3);
  Alcotest.(check int) "cancelled" 0 (F.total t)

let test_bounds () =
  let t = F.create 4 in
  Alcotest.check_raises "too large" (Invalid_argument "Fenwick.add: index out of range")
    (fun () -> F.add t 4 1);
  Alcotest.check_raises "negative" (Invalid_argument "Fenwick.add: index out of range")
    (fun () -> F.add t (-1) 1)

let test_prefix_clamps () =
  let t = F.create 4 in
  F.add t 0 2;
  Alcotest.(check int) "negative index" 0 (F.prefix_sum t (-1));
  Alcotest.(check int) "index beyond size" 2 (F.prefix_sum t 100)

let prop_matches_naive =
  QCheck.Test.make ~count:200 ~name:"fenwick matches naive prefix sums"
    QCheck.(list_of_size (Gen.int_range 1 50) (pair (int_range 0 49) (int_range (-5) 5)))
    (fun ops ->
      let n = 50 in
      let t = F.create n in
      let ref_arr = Array.make n 0 in
      List.iter
        (fun (i, d) ->
          F.add t i d;
          ref_arr.(i) <- ref_arr.(i) + d)
        ops;
      let ok = ref true in
      let acc = ref 0 in
      for i = 0 to n - 1 do
        acc := !acc + ref_arr.(i);
        if F.prefix_sum t i <> !acc then ok := false
      done;
      !ok)

let test_reset_ones () =
  (* Every (size, count) up to 17, after arbitrary earlier weights: the
     prefix sums are those of k leading ones, and adds keep working. *)
  for n = 0 to 17 do
    for k = 0 to n do
      let t = F.create n in
      for i = 0 to n - 1 do F.add t i (i * 3) done;
      F.reset_ones t k;
      for i = 0 to n - 1 do
        Alcotest.(check int) (Printf.sprintf "n=%d k=%d prefix %d" n k i)
          (min (i + 1) k) (F.prefix_sum t i)
      done;
      if n > 0 then begin
        F.add t (n - 1) 2;
        Alcotest.(check int) "total after add" (k + 2) (F.total t)
      end
    done
  done;
  Alcotest.check_raises "count above size"
    (Invalid_argument "Fenwick.reset_ones: count out of range") (fun () ->
      F.reset_ones (F.create 3) 4)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "single add" `Quick test_single_add;
    Alcotest.test_case "range sum" `Quick test_range_sum;
    Alcotest.test_case "negative delta" `Quick test_negative_delta;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "prefix clamps" `Quick test_prefix_clamps;
    Alcotest.test_case "reset ones" `Quick test_reset_ones;
    QCheck_alcotest.to_alcotest prop_matches_naive;
  ]
