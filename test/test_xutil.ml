(* Substrate utilities: RNG determinism and distribution, CRC vectors,
   binary IO roundtrips, histogram percentiles, queues under concurrency. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Xutil.Rng.create 1L and b = Xutil.Rng.create 1L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Int64.equal (Xutil.Rng.next64 a) (Xutil.Rng.next64 b))
  done

let test_rng_split_independent () =
  let a = Xutil.Rng.create 1L in
  let c = Xutil.Rng.split a in
  check_bool "split differs from parent" false
    (Int64.equal (Xutil.Rng.next64 a) (Xutil.Rng.next64 c))

let test_rng_bounds () =
  let r = Xutil.Rng.create 99L in
  for _ = 1 to 10_000 do
    let v = Xutil.Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let v = Xutil.Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "int_in out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Xutil.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 100k draws, each within 20% of mean. *)
  let r = Xutil.Rng.create 7L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Xutil.Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket count %d too far from %d" c (n / 10))
    buckets

let test_shuffle_is_permutation () =
  let r = Xutil.Rng.create 3L in
  let a = Array.init 100 Fun.id in
  Xutil.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "permutation" true (sorted = Array.init 100 Fun.id)

(* --- Crc32c --- *)

let test_crc_vectors () =
  (* Known CRC-32C test vectors (RFC 3720 / common references). *)
  let cases =
    [
      ("", 0x00000000l);
      ("a", 0xC1D04330l);
      ("abc", 0x364B3FB7l);
      ("123456789", 0xE3069283l);
      (String.make 32 '\x00', 0x8A9136AAl);
      (String.make 32 '\xFF', 0x62A8AB43l);
      (String.init 32 Char.chr, 0x46DD794El);
      (String.init 32 (fun i -> Char.chr (31 - i)), 0x113FDB5Cl);
    ]
  in
  List.iter
    (fun (s, expected) ->
      let got = Xutil.Crc32c.digest_string s in
      if not (Int32.equal got expected) then
        Alcotest.failf "crc %S: got %lx want %lx" s got expected)
    cases

let test_crc_mask_roundtrip () =
  let c = Xutil.Crc32c.digest_string "some record" in
  check_bool "mask roundtrip" true
    (Int32.equal c (Xutil.Crc32c.unmask (Xutil.Crc32c.mask c)));
  check_bool "mask changes value" false (Int32.equal c (Xutil.Crc32c.mask c))

let test_crc_incremental () =
  let whole = Xutil.Crc32c.digest_string "hello world" in
  let part = Xutil.Crc32c.digest_string "hello " in
  let inc = Xutil.Crc32c.digest_string ~crc:part "world" in
  check_bool "incremental = whole" true (Int32.equal whole inc)

(* The bit-at-a-time definition, the reference for the sliced tables. *)
let crc_reference s ~pos ~len =
  let c = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

let test_crc_reference () =
  let rng = Xutil.Rng.create 7L in
  let buf = String.init 80 (fun _ -> Char.chr (Xutil.Rng.int rng 256)) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      let got = Xutil.Crc32c.digest (Bytes.of_string buf) ~pos ~len in
      let want = crc_reference buf ~pos ~len in
      if not (Int32.equal got want) then
        Alcotest.failf "crc pos %d len %d: got %lx want %lx" pos len got want
    done
  done

(* --- Binio --- *)

let test_binio_roundtrip () =
  let w = Xutil.Binio.writer () in
  Xutil.Binio.write_u8 w 0xAB;
  Xutil.Binio.write_u16 w 0xBEEF;
  Xutil.Binio.write_u32 w 0xDEADBEEF;
  Xutil.Binio.write_u64 w 0x0123456789ABCDEFL;
  Xutil.Binio.write_varint w 0;
  Xutil.Binio.write_varint w 127;
  Xutil.Binio.write_varint w 128;
  Xutil.Binio.write_varint w 300_000_000_000;
  Xutil.Binio.write_string w "payload \x00 with nul";
  let r = Xutil.Binio.reader (Xutil.Binio.contents w) in
  check_int "u8" 0xAB (Xutil.Binio.read_u8 r);
  check_int "u16" 0xBEEF (Xutil.Binio.read_u16 r);
  check_int "u32" 0xDEADBEEF (Xutil.Binio.read_u32 r);
  check_bool "u64" true (Int64.equal 0x0123456789ABCDEFL (Xutil.Binio.read_u64 r));
  check_int "varint 0" 0 (Xutil.Binio.read_varint r);
  check_int "varint 127" 127 (Xutil.Binio.read_varint r);
  check_int "varint 128" 128 (Xutil.Binio.read_varint r);
  check_int "varint big" 300_000_000_000 (Xutil.Binio.read_varint r);
  check_string "string" "payload \x00 with nul" (Xutil.Binio.read_string r);
  check_int "exhausted" 0 (Xutil.Binio.remaining r)

let test_binio_truncated () =
  let r = Xutil.Binio.reader "\x01" in
  check_bool "truncated u32 raises" true
    (match Xutil.Binio.read_u32 r with
    | _ -> false
    | exception Xutil.Binio.Truncated -> true);
  let r2 = Xutil.Binio.reader "\x05ab" in
  check_bool "truncated string raises" true
    (match Xutil.Binio.read_string r2 with
    | _ -> false
    | exception Xutil.Binio.Truncated -> true)

(* Boundary values: the one-byte fast path ends at 127; max_int takes
   the full 9 bytes.  Each encoding must also have its expected length. *)
let test_binio_varint_bounds () =
  List.iter
    (fun (n, bytes) ->
      let w = Xutil.Binio.writer ~capacity:1 () in
      Xutil.Binio.write_varint w n;
      check_int (Printf.sprintf "varint %d length" n) bytes (Xutil.Binio.length w);
      let r = Xutil.Binio.reader (Xutil.Binio.contents w) in
      check_int (Printf.sprintf "varint %d" n) n (Xutil.Binio.read_varint r);
      check_int "exhausted" 0 (Xutil.Binio.remaining r))
    [ (0, 1); (127, 1); (128, 2); (16383, 2); (16384, 3); (max_int, 9) ]

let test_binio_varint_overlong () =
  let raises s =
    match Xutil.Binio.read_varint (Xutil.Binio.reader s) with
    | _ -> false
    | exception Xutil.Binio.Truncated -> true
  in
  (* Ten bytes, the first nine with the continuation bit: the tenth would
     shift past bit 63. *)
  check_bool "overlong raises" true (raises (String.make 9 '\x80' ^ "\x01"));
  check_bool "endless continuation raises" true (raises (String.make 64 '\xff'));
  check_bool "cut mid-varint raises" true (raises "\x80\x80");
  check_int "nine bytes still read" (1 lsl 56)
    (Xutil.Binio.read_varint (Xutil.Binio.reader (String.make 8 '\x80' ^ "\x01")))

let prop_binio_strings =
  QCheck.Test.make ~name:"binio string roundtrip" ~count:500
    QCheck.(list (string_gen_of_size QCheck.Gen.(0 -- 50) QCheck.Gen.char))
    (fun ss ->
      let w = Xutil.Binio.writer () in
      List.iter (Xutil.Binio.write_string w) ss;
      let r = Xutil.Binio.reader (Xutil.Binio.contents w) in
      List.for_all (fun s -> String.equal s (Xutil.Binio.read_string r)) ss)

(* --- Histogram --- *)

let test_histogram_basic () =
  let h = Xutil.Histogram.create () in
  for i = 1 to 1000 do
    Xutil.Histogram.add h i
  done;
  check_int "count" 1000 (Xutil.Histogram.count h);
  check_int "max" 1000 (Xutil.Histogram.max_value h);
  let p50 = Xutil.Histogram.percentile h 50.0 in
  check_bool "p50 near 500" true (abs (p50 - 500) < 25);
  let p99 = Xutil.Histogram.percentile h 99.0 in
  check_bool "p99 near 990" true (abs (p99 - 990) < 40)

let test_histogram_merge () =
  let a = Xutil.Histogram.create () and b = Xutil.Histogram.create () in
  Xutil.Histogram.add a 10;
  Xutil.Histogram.add b 1000;
  Xutil.Histogram.merge_into ~dst:a b;
  check_int "merged count" 2 (Xutil.Histogram.count a);
  check_int "merged max" 1000 (Xutil.Histogram.max_value a);
  check_int "merged min" 10 (Xutil.Histogram.min_value a)

(* Pins the mli's percentile contract: results are clamped into
   [min_value, max_value], so a single-sample histogram reports that
   sample at every percentile — including samples past the bucket range,
   whose overflow-bucket upper edge sits *below* the sample. *)
let test_histogram_single_sample () =
  List.iter
    (fun v ->
      let h = Xutil.Histogram.create () in
      Xutil.Histogram.add h v;
      check_int "min = sample" v (Xutil.Histogram.min_value h);
      check_int "max = sample" v (Xutil.Histogram.max_value h);
      List.iter
        (fun p ->
          check_int
            (Printf.sprintf "p%.1f of single sample %d" p v)
            v
            (Xutil.Histogram.percentile h p))
        [ 0.0; 0.1; 50.0; 99.0; 99.9; 100.0 ])
    [ 1; 7; 1000; 123_456_789; max_int / 2 ];
  let empty = Xutil.Histogram.create () in
  check_int "empty min" 0 (Xutil.Histogram.min_value empty);
  check_int "empty percentile" 0 (Xutil.Histogram.percentile empty 50.0)

(* --- Queues, locks, barrier under domains --- *)

let test_mpsc_fifo () =
  let q = Xutil.Mpsc_queue.create () in
  for i = 1 to 100 do
    Xutil.Mpsc_queue.push q i
  done;
  let out = ref [] in
  ignore (Xutil.Mpsc_queue.drain q (fun v -> out := v :: !out));
  check_bool "fifo order" true (List.rev !out = List.init 100 (fun i -> i + 1))

let test_mpsc_concurrent () =
  let q = Xutil.Mpsc_queue.create () in
  let producers = 4 and per = 5000 in
  let seen = Array.make (producers * per) false in
  let counter = ref 0 in
  let consumer_done = Atomic.make false in
  let consumer =
    Domain.spawn (fun () ->
        while (not (Atomic.get consumer_done)) || not (Xutil.Mpsc_queue.is_empty q) do
          match Xutil.Mpsc_queue.pop q with
          | Some v ->
              if seen.(v) then failwith "duplicate";
              seen.(v) <- true;
              incr counter
          | None -> Domain.cpu_relax ()
        done)
  in
  ignore
    (Xutil.Domain_pool.run producers (fun d ->
         for i = 0 to per - 1 do
           Xutil.Mpsc_queue.push q ((d * per) + i)
         done));
  Atomic.set consumer_done true;
  Domain.join consumer;
  check_int "all consumed exactly once" (producers * per) !counter

let test_spsc_ring () =
  let r = Xutil.Spsc_ring.create 8 in
  check_bool "push" true (Xutil.Spsc_ring.try_push r 1);
  check_bool "pop" true (Xutil.Spsc_ring.try_pop r = Some 1);
  check_bool "empty pop" true (Xutil.Spsc_ring.try_pop r = None);
  (* Fill to capacity. *)
  for i = 1 to 8 do
    check_bool "fill" true (Xutil.Spsc_ring.try_push r i)
  done;
  check_bool "full rejects" false (Xutil.Spsc_ring.try_push r 9);
  for i = 1 to 8 do
    check_bool "drain order" true (Xutil.Spsc_ring.try_pop r = Some i)
  done

let test_spsc_concurrent () =
  let r = Xutil.Spsc_ring.create 64 in
  let n = 100_000 in
  let consumer =
    Domain.spawn (fun () ->
        let sum = ref 0 in
        for _ = 1 to n do
          sum := !sum + Xutil.Spsc_ring.pop r
        done;
        !sum)
  in
  for i = 1 to n do
    Xutil.Spsc_ring.push r i
  done;
  let got = Domain.join consumer in
  check_int "sum preserved" (n * (n + 1) / 2) got

let test_spinlock_mutual_exclusion () =
  let l = Xutil.Spinlock.create () in
  let counter = ref 0 in
  ignore
    (Xutil.Domain_pool.run 4 (fun _ ->
         for _ = 1 to 10_000 do
           Xutil.Spinlock.with_lock l (fun () -> incr counter)
         done));
  check_int "no lost increments" 40_000 !counter

let test_barrier () =
  let b = Xutil.Barrier.create 4 in
  let phase = Atomic.make 0 in
  let errors = Atomic.make 0 in
  ignore
    (Xutil.Domain_pool.run 4 (fun _ ->
         for expected = 0 to 9 do
           if Atomic.get phase <> expected then Atomic.incr errors;
           Xutil.Barrier.wait b;
           (* Exactly one domain advances the phase per round. *)
           ignore (Atomic.compare_and_set phase expected (expected + 1));
           Xutil.Barrier.wait b
         done));
  check_int "no phase errors" 0 (Atomic.get errors);
  check_int "all phases done" 10 (Atomic.get phase)

let test_parallel_for () =
  let hits = Array.make 1000 0 in
  Xutil.Domain_pool.parallel_for ~domains:3 ~lo:0 ~hi:1000 (fun i ->
      hits.(i) <- hits.(i) + 1);
  check_bool "each index once" true (Array.for_all (fun c -> c = 1) hits)

let test_bits () =
  check_int "clz 1" 62 (Xutil.Bits.count_leading_zeros 1);
  check_int "clz 0" 63 (Xutil.Bits.count_leading_zeros 0);
  check_int "ceil_log2 1" 0 (Xutil.Bits.ceil_log2 1);
  check_int "ceil_log2 9" 4 (Xutil.Bits.ceil_log2 9);
  check_int "popcount" 3 (Xutil.Bits.popcount 0b10101)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "shuffle" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "crc vectors" `Quick test_crc_vectors;
    Alcotest.test_case "crc mask" `Quick test_crc_mask_roundtrip;
    Alcotest.test_case "crc incremental" `Quick test_crc_incremental;
    Alcotest.test_case "crc vs bitwise reference" `Quick test_crc_reference;
    Alcotest.test_case "binio roundtrip" `Quick test_binio_roundtrip;
    Alcotest.test_case "binio truncated" `Quick test_binio_truncated;
    Alcotest.test_case "binio varint bounds" `Quick test_binio_varint_bounds;
    Alcotest.test_case "binio varint overlong" `Quick test_binio_varint_overlong;
    QCheck_alcotest.to_alcotest prop_binio_strings;
    Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram single sample" `Quick test_histogram_single_sample;
    Alcotest.test_case "mpsc fifo" `Quick test_mpsc_fifo;
    Alcotest.test_case "mpsc concurrent" `Quick test_mpsc_concurrent;
    Alcotest.test_case "spsc ring" `Quick test_spsc_ring;
    Alcotest.test_case "spsc concurrent" `Quick test_spsc_concurrent;
    Alcotest.test_case "spinlock" `Quick test_spinlock_mutual_exclusion;
    Alcotest.test_case "barrier" `Quick test_barrier;
    Alcotest.test_case "parallel_for" `Quick test_parallel_for;
    Alcotest.test_case "bits" `Quick test_bits;
  ]
