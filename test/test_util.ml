(* Unit and property tests for lib/util: prng, siphash, signing, bitset,
   pqueue. *)

module Prng = Oasis_util.Prng
module Siphash = Oasis_util.Siphash
module Signing = Oasis_util.Signing
module Bitset = Oasis_util.Bitset
module Pqueue = Oasis_util.Pqueue

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1L and b = Prng.create 2L in
  checkb "different seeds diverge" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 7L in
  let b = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.bits64 a) in
  let ys = List.init 50 (fun _ -> Prng.bits64 b) in
  checkb "split streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let g = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let g = Prng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create 11L in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    checkb "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_exponential_positive () =
  let g = Prng.create 5L in
  let sum = ref 0.0 in
  for _ = 1 to 2000 do
    let v = Prng.exponential g ~mean:3.0 in
    checkb "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. 2000.0 in
  checkb "mean approx 3" true (mean > 2.5 && mean < 3.5)

let test_prng_zipf_skew () =
  let g = Prng.create 9L in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    let k = Prng.zipf g ~n:10 ~s:1.2 in
    counts.(k) <- counts.(k) + 1
  done;
  checkb "rank 0 most popular" true (counts.(0) > counts.(5));
  checkb "all in range" true (Array.for_all (fun c -> c >= 0) counts)

let test_prng_pick_shuffle () =
  let g = Prng.create 21L in
  let a = [| 1; 2; 3; 4; 5 |] in
  let picked = Prng.pick g a in
  checkb "picked member" true (Array.exists (( = ) picked) a);
  let b = Array.copy a in
  Prng.shuffle g b;
  Alcotest.(check (list int)) "permutation" (List.sort compare (Array.to_list a))
    (List.sort compare (Array.to_list b))

(* --- siphash --- *)

let test_siphash_reference_vector () =
  (* SipHash-2-4 reference test vector from the Aumasson/Bernstein paper:
     key = 000102...0f, input = 00 01 02 ... 0e (15 bytes). *)
  let key = Siphash.key_of_int64s 0x0706050403020100L 0x0f0e0d0c0b0a0908L in
  let input = String.init 15 Char.chr in
  Alcotest.(check string) "reference vector" "a129ca6149be45e5" (Siphash.hash_hex key input)

let test_siphash_key_sensitivity () =
  let k1 = Siphash.key_of_string "secret-1" and k2 = Siphash.key_of_string "secret-2" in
  checkb "different keys, different hash" true (Siphash.hash k1 "payload" <> Siphash.hash k2 "payload")

let test_siphash_input_sensitivity () =
  let k = Siphash.key_of_string "k" in
  checkb "bit flip changes hash" true (Siphash.hash k "payloadA" <> Siphash.hash k "payloadB")

let test_siphash_empty_and_long () =
  let k = Siphash.key_of_string "k" in
  let h1 = Siphash.hash k "" in
  let h2 = Siphash.hash k (String.make 1000 'x') in
  checkb "defined on empty" true (h1 <> 0L || true);
  checkb "long inputs hash" true (h1 <> h2)

let prop_siphash_deterministic =
  QCheck.Test.make ~name:"siphash deterministic" ~count:200 QCheck.string (fun s ->
      let k = Siphash.key_of_string "fixed" in
      Siphash.hash k s = Siphash.hash k s)

let prop_siphash_length_distinguishes =
  QCheck.Test.make ~name:"siphash distinguishes s from s+nul" ~count:200 QCheck.string (fun s ->
      let k = Siphash.key_of_string "fixed" in
      Siphash.hash k s <> Siphash.hash k (s ^ "\x00"))

(* --- signing --- *)

let test_sign_verify_roundtrip () =
  let s = Signing.secret_of_string "hunter2" in
  let signature = Signing.sign s "hello" in
  checkb "verifies" true (Signing.verify s "hello" signature)

let test_sign_tamper_detected () =
  let s = Signing.secret_of_string "hunter2" in
  let signature = Signing.sign s "hello" in
  checkb "tampered payload fails" false (Signing.verify s "hellO" signature);
  checkb "tampered signature fails" false
    (Signing.verify s "hello" (String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) signature))

let test_sign_lengths () =
  let s = Signing.secret_of_string "k" in
  List.iter
    (fun len ->
      let signature = Signing.sign ~length:len s "data" in
      checki "length respected" len (String.length signature);
      checkb "verifies at length" true (Signing.verify ~length:len s "data" signature))
    [ 4; 8; 16; 24; 32 ]

let test_sign_length_bounds () =
  let s = Signing.secret_of_string "k" in
  Alcotest.check_raises "too short" (Invalid_argument "Signing.sign: length must be in [4, 32]")
    (fun () -> ignore (Signing.sign ~length:2 s "x"))

let test_sign_key_separation () =
  let s1 = Signing.secret_of_string "a" and s2 = Signing.secret_of_string "b" in
  let signature = Signing.sign s1 "data" in
  checkb "wrong key fails" false (Signing.verify s2 "data" signature)

let test_verify_rejects_truncated () =
  (* Regression: verify used to take the expected length from the presented
     signature, so a prefix of a valid signature verified.  The expected
     length must come from the verifier's configuration. *)
  let s = Signing.secret_of_string "hunter2" in
  let signature = Signing.sign ~length:16 s "hello" in
  checkb "full signature verifies" true (Signing.verify ~length:16 s "hello" signature);
  List.iter
    (fun len ->
      checkb
        (Printf.sprintf "truncated to %d rejected" len)
        false
        (Signing.verify ~length:16 s "hello" (String.sub signature 0 len)))
    [ 4; 8; 15 ];
  checkb "default length is 16" false (Signing.verify s "hello" (String.sub signature 0 4))

let test_rolling_basic () =
  let t = Signing.Rolling.create (Prng.create 1L) in
  let signature = Signing.Rolling.sign t "payload" in
  checkb "verifies" true (Signing.Rolling.verify t "payload" signature);
  checkb "tamper fails" false (Signing.Rolling.verify t "payloadx" signature)

let test_rolling_old_secret_survives_within_capacity () =
  let t = Signing.Rolling.create ~capacity:3 (Prng.create 2L) in
  let signature = Signing.Rolling.sign t "p" in
  Signing.Rolling.roll t;
  Signing.Rolling.roll t;
  checkb "still valid (capacity 3)" true (Signing.Rolling.verify t "p" signature);
  Signing.Rolling.roll t;
  checkb "retired after capacity rolls" false (Signing.Rolling.verify t "p" signature)

let test_rolling_new_secret_signs () =
  let t = Signing.Rolling.create ~capacity:2 (Prng.create 3L) in
  Signing.Rolling.roll t;
  let signature = Signing.Rolling.sign t "q" in
  checkb "current secret verifies" true (Signing.Rolling.verify t "q" signature);
  checki "generation counted" 1 (Signing.Rolling.generation t)

let test_rolling_garbage_signature () =
  let t = Signing.Rolling.create (Prng.create 4L) in
  checkb "garbage rejected" false (Signing.Rolling.verify t "p" "zzzz");
  checkb "short rejected" false (Signing.Rolling.verify t "p" "ab")

let test_rolling_rejects_truncated () =
  let t = Signing.Rolling.create (Prng.create 5L) in
  let signature = Signing.Rolling.sign ~length:16 t "payload" in
  checkb "full verifies" true (Signing.Rolling.verify ~length:16 t "payload" signature);
  checkb "truncated rejected" false
    (Signing.Rolling.verify ~length:16 t "payload" (String.sub signature 0 4));
  checkb "truncated rejected at default" false
    (Signing.Rolling.verify t "payload" (String.sub signature 0 4))

(* --- bitset --- *)

let small_int_list = QCheck.(small_list (int_bound 62))

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset marshal roundtrip" ~count:300 small_int_list (fun l ->
      let s = Bitset.of_list l in
      match Bitset.unmarshal (Bitset.marshal s) with
      | Some s' -> Bitset.equal s s'
      | None -> false)

let prop_bitset_mem_add =
  QCheck.Test.make ~name:"mem after add" ~count:300
    QCheck.(pair (int_bound 62) small_int_list)
    (fun (x, l) -> Bitset.mem x (Bitset.add x (Bitset.of_list l)))

let prop_bitset_union_superset =
  QCheck.Test.make ~name:"union is superset" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let u = Bitset.union sa sb in
      Bitset.subset sa u && Bitset.subset sb u)

let prop_bitset_inter_subset =
  QCheck.Test.make ~name:"intersection is subset" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let i = Bitset.inter sa sb in
      Bitset.subset i sa && Bitset.subset i sb)

let prop_bitset_diff_disjoint =
  QCheck.Test.make ~name:"diff disjoint from subtrahend" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (a, b) ->
      let d = Bitset.diff (Bitset.of_list a) (Bitset.of_list b) in
      Bitset.is_empty (Bitset.inter d (Bitset.of_list b)))

let prop_bitset_to_list_sorted =
  QCheck.Test.make ~name:"to_list sorted unique" ~count:300 small_int_list (fun l ->
      let out = Bitset.to_list (Bitset.of_list l) in
      out = List.sort_uniq compare l)

let test_bitset_range () =
  Alcotest.check_raises "negative element" (Invalid_argument "Bitset: element -1 out of range")
    (fun () -> ignore (Bitset.singleton (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: element 63 out of range") (fun () ->
      ignore (Bitset.singleton 63))

let test_bitset_cardinal () =
  checki "cardinal" 3 (Bitset.cardinal (Bitset.of_list [ 1; 5; 30 ]));
  checki "empty" 0 (Bitset.cardinal Bitset.empty)

let test_bitset_unmarshal_strict () =
  (* Regression: unmarshal used [int_of_string_opt ("0x" ^ s)], which accepts
     underscores anywhere and hex wider than the 0..62 domain. *)
  let rejects s = checkb (Printf.sprintf "%S rejected" s) true (Bitset.unmarshal s = None) in
  rejects "";
  rejects "1_0";
  rejects "_1";
  rejects "0x1";
  rejects "zz";
  rejects "-1";
  rejects " 1";
  rejects "8000000000000000";  (* bit 63: out of domain *)
  rejects "ffffffffffffffff";
  rejects "10000000000000000" (* 17 digits: wider than 64 bits *);
  (* The full 0..62 set is the widest legal value. *)
  (match Bitset.unmarshal "7fffffffffffffff" with
  | Some s -> checki "full set cardinal" 63 (Bitset.cardinal s)
  | None -> Alcotest.fail "full 0..62 set must unmarshal");
  (* Mixed-case hex and high single elements still roundtrip. *)
  (match Bitset.unmarshal (Bitset.marshal (Bitset.singleton 62)) with
  | Some s -> checkb "bit 62 roundtrips" true (Bitset.mem 62 s)
  | None -> Alcotest.fail "bit 62 must roundtrip");
  match Bitset.unmarshal "aB3" with
  | Some s -> checkb "mixed case accepted" true (Bitset.equal s (Bitset.of_list [ 0; 1; 4; 5; 7; 9; 11 ]))
  | None -> Alcotest.fail "mixed-case hex must parse"

(* --- pqueue --- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ x1; x2; x3 ]

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "first"; "second"; "third" ];
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ]
    [ x1; x2; x3 ]

let test_pqueue_empty () =
  let q = Pqueue.create () in
  checkb "empty pop" true (Pqueue.pop q = None);
  checkb "empty peek" true (Pqueue.peek q = None);
  checkb "is_empty" true (Pqueue.is_empty q)

let prop_pqueue_pop_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) priorities;
      let rec drain acc =
        match Pqueue.pop q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare priorities)

let prop_pqueue_length =
  QCheck.Test.make ~name:"pqueue length tracks pushes/pops" ~count:200
    QCheck.(small_list (float_bound_inclusive 10.0))
    (fun ps ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p ()) ps;
      let n1 = Pqueue.length q = List.length ps in
      ignore (Pqueue.pop q);
      let n2 = Pqueue.length q = max 0 (List.length ps - 1) in
      n1 && n2)

let test_pqueue_to_list_nondestructive () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q p (int_of_float p)) [ 2.0; 1.0; 3.0 ];
  let snapshot = Pqueue.to_list q in
  checki "still 3" 3 (Pqueue.length q);
  Alcotest.(check (list int)) "snapshot sorted" [ 1; 2; 3 ] (List.map snd snapshot)

(* --- json: sorted keys make emission order-independent --- *)

module Json = Oasis_util.Json

let test_json_sorted_key_order_independent () =
  (* The same document assembled in two different field orders (nested
     objects included) must render byte-identically after [sorted] — this
     is what keeps BENCH_*.json diffable run to run. *)
  let doc fields inner =
    Json.Obj
      (List.map
         (fun k ->
           ( k,
             if k = "nested" then Json.Obj (List.map (fun k' -> (k', Json.Int 1)) inner)
             else Json.Str k ))
         fields)
  in
  let a = doc [ "b"; "a"; "nested"; "c" ] [ "z"; "y"; "x" ] in
  let b = doc [ "c"; "nested"; "a"; "b" ] [ "x"; "z"; "y" ] in
  checkb "permuted fields render differently unsorted" true
    (Json.to_string a <> Json.to_string b);
  Alcotest.(check string)
    "sorted renders identically" (Json.to_string (Json.sorted a))
    (Json.to_string (Json.sorted b));
  (* Arrays keep their order — only object keys are sorted. *)
  let arr = Json.Arr [ Json.Int 3; Json.Int 1; Json.Int 2 ] in
  Alcotest.(check string) "arrays untouched" (Json.to_string arr)
    (Json.to_string (Json.sorted arr))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "exponential" `Quick test_prng_exponential_positive;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "pick and shuffle" `Quick test_prng_pick_shuffle;
        ] );
      ( "siphash",
        [
          Alcotest.test_case "reference vector" `Quick test_siphash_reference_vector;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "input sensitivity" `Quick test_siphash_input_sensitivity;
          Alcotest.test_case "empty and long" `Quick test_siphash_empty_and_long;
          qt prop_siphash_deterministic;
          qt prop_siphash_length_distinguishes;
        ] );
      ( "signing",
        [
          Alcotest.test_case "roundtrip" `Quick test_sign_verify_roundtrip;
          Alcotest.test_case "tamper detected" `Quick test_sign_tamper_detected;
          Alcotest.test_case "lengths" `Quick test_sign_lengths;
          Alcotest.test_case "length bounds" `Quick test_sign_length_bounds;
          Alcotest.test_case "key separation" `Quick test_sign_key_separation;
          Alcotest.test_case "truncated signature rejected" `Quick test_verify_rejects_truncated;
          Alcotest.test_case "rolling basic" `Quick test_rolling_basic;
          Alcotest.test_case "rolling retires old" `Quick test_rolling_old_secret_survives_within_capacity;
          Alcotest.test_case "rolling new signs" `Quick test_rolling_new_secret_signs;
          Alcotest.test_case "rolling garbage" `Quick test_rolling_garbage_signature;
          Alcotest.test_case "rolling truncated rejected" `Quick test_rolling_rejects_truncated;
        ] );
      ( "bitset",
        [
          qt prop_bitset_roundtrip;
          qt prop_bitset_mem_add;
          qt prop_bitset_union_superset;
          qt prop_bitset_inter_subset;
          qt prop_bitset_diff_disjoint;
          qt prop_bitset_to_list_sorted;
          Alcotest.test_case "range errors" `Quick test_bitset_range;
          Alcotest.test_case "cardinal" `Quick test_bitset_cardinal;
          Alcotest.test_case "strict unmarshal" `Quick test_bitset_unmarshal_strict;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          qt prop_pqueue_pop_sorted;
          qt prop_pqueue_length;
          Alcotest.test_case "to_list" `Quick test_pqueue_to_list_nondestructive;
        ] );
      ( "json",
        [
          Alcotest.test_case "sorted keys are order-independent" `Quick
            test_json_sorted_key_order_independent;
        ] );
    ]
