(* Off-heap node arena: cell/blob alloc-free roundtrips, size-class
   reuse, oversize spill, race-safe accessors on stale handles, the
   epoch-deferred free protocol, and the leak oracle. *)

open Masstree_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_cell_roundtrip () =
  let p = Pool.create () in
  let c = Pool.alloc_cell p in
  for i = 0 to Pool.cell_words - 1 do
    check_int "zeroed" 0 (Pool.get p (c + i))
  done;
  for i = 0 to Pool.cell_words - 1 do
    Pool.set p (c + i) (i * 7 - 3)
  done;
  for i = 0 to Pool.cell_words - 1 do
    check_int "readback" ((i * 7) - 3) (Pool.get p (c + i))
  done;
  Pool.free_cell p c;
  (* The free list hands the same cell back, zeroed again. *)
  let c2 = Pool.alloc_cell p in
  check_int "freed cell reused" c c2;
  check_int "reused cell zeroed" 0 (Pool.get p c2);
  let s = Pool.stats p in
  check_int "one live cell" 1 s.Pool.cells_live;
  check_int "alloc accounting" 2 s.Pool.cells_allocated;
  check_int "free accounting" 1 s.Pool.cells_freed

(* The packed border cell: word s holds slot s's slice-hi and suffix
   handle, word 14+s its (lo, klen).  Every field at its extremes must
   read back exactly, and a write of one slot, or of one slot's handle,
   must leave every other field intact. *)
let test_packed_cell_fields () =
  let p = Pool.create () in
  let b = Node.new_border ~pool:p ~isroot:true ~locked:false ~lowhi:0 ~lowlo:0 in
  let m32 = (1 lsl 32) - 1 in
  let edges32 = [ 0; 1; 0x8000_0000; m32 ] in
  let klens = List.init 10 Fun.id in
  let handles = [ 0; 16; Pool.max_handle; -1; -Pool.max_handle ] in
  let expect = Array.init Node.width (fun s -> (s * 977, s * 131, s mod 10, s * 32)) in
  let check_slot s =
    let hi, lo, kl, h = expect.(s) in
    check_int "hi" hi (Node.slice_hi b s);
    check_int "lo" lo (Node.slice_lo b s);
    check_int "klen" kl (Node.keylen b s);
    check_int "handle" h (Node.suffix_handle b s)
  in
  let check_all () = for s = 0 to Node.width - 1 do check_slot s done in
  Array.iteri
    (fun s (hi, lo, klen, h) -> Node.set_entry b s ~hi ~lo ~klen ~h)
    expect;
  check_all ();
  for s = 0 to Node.width - 1 do
    List.iter
      (fun hi ->
        List.iter
          (fun lo ->
            List.iter
              (fun klen ->
                List.iter
                  (fun h ->
                    Node.set_entry b s ~hi ~lo ~klen ~h;
                    expect.(s) <- (hi, lo, klen, h);
                    check_slot s)
                  handles)
              klens)
          edges32)
      edges32;
    (* The handle-only writer, over slots whose other fields sit at
       their extremes. *)
    List.iter
      (fun (hi, lo, klen) ->
        Node.set_entry b s ~hi ~lo ~klen ~h:0;
        List.iter
          (fun h ->
            Node.set_suffix_handle b s h;
            expect.(s) <- (hi, lo, klen, h);
            check_slot s)
          handles)
      [ (m32, m32, 9); (0, m32, 0); (m32, 0, 8) ];
    check_all ()
  done

let test_blob_roundtrip () =
  let p = Pool.create () in
  (* One blob per size class, from tiny to past the largest class so the
     oversize path (negative handle, heap spill) is exercised too. *)
  let sizes = [ 0; 1; 15; 16; 17; 255; 4096; 65536; 262144; 262145; 1 lsl 20 ] in
  let blobs =
    List.map
      (fun n ->
        let s = String.init n (fun i -> Char.chr ((i * 131 + n) land 0xff)) in
        (Pool.alloc_blob p s, s))
      sizes
  in
  List.iter
    (fun (h, s) ->
      check_bool "handle nonzero" true (h <> 0);
      check_int "len" (String.length s) (Pool.blob_len p h);
      check_string "contents" s (Pool.blob_to_string p h))
    blobs;
  List.iter (fun (h, _) -> Pool.free_blob p h) blobs;
  let s = Pool.stats p in
  check_int "no live blobs" 0 s.Pool.blobs_live;
  check_int "no live bytes" 0 s.Pool.blob_bytes_live

let test_blob_suffix_path () =
  let p = Pool.create () in
  let k = "ABCDEFGHsuffix-bytes" in
  let h = Pool.alloc_blob_of_key p k ~pos:8 in
  check_string "suffix copied" "suffix-bytes" (Pool.blob_to_string p h);
  check_bool "matches own key" true (Pool.blob_matches_key p h k ~pos:8);
  check_bool "rejects longer" false
    (Pool.blob_matches_key p h (k ^ "x") ~pos:8);
  check_bool "rejects shorter" false
    (Pool.blob_matches_key p h "ABCDEFGHsuffix-byte" ~pos:8);
  check_bool "rejects different" false
    (Pool.blob_matches_key p h "ABCDEFGHsuffix-bytez" ~pos:8);
  (* Race safety: a stale/garbage handle must stay in bounds and simply
     fail to match — the version check discards the result. *)
  check_bool "stale handle no match" false
    (Pool.blob_matches_key p 123456789 k ~pos:8);
  ignore (Pool.blob_len p 987654321);
  Pool.free_blob p h

let test_size_class_reuse () =
  let p = Pool.create () in
  let payload = String.make 100 'x' in
  (* Fill several refill chunks' worth, free them all, allocate again:
     the second wave must come from the free list, not new slabs. *)
  let hs = Array.init 1000 (fun _ -> Pool.alloc_blob p payload) in
  let fp1 = Pool.footprint_bytes p in
  Array.iter (fun h -> Pool.free_blob p h) hs;
  let hs2 = Array.init 1000 (fun _ -> Pool.alloc_blob p payload) in
  check_int "footprint stable under reuse" fp1 (Pool.footprint_bytes p);
  Array.iter (fun h -> Pool.free_blob p h) hs2;
  let s = Pool.stats p in
  check_bool "refills happened" true (s.Pool.refills > 0);
  check_int "all freed" 0 s.Pool.blobs_live

let test_deferred_free () =
  let p = Pool.create () in
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let reader = Epoch.register m in
  let c = Pool.alloc_cell p in
  let b = Pool.alloc_blob p "deferred" in
  Epoch.pin reader (fun () ->
      Pool.retire_cell p h c;
      Pool.retire_blob p h b;
      Pool.retire_blob p h 0 (* no-op on the null handle *);
      let s = Pool.stats p in
      check_int "deferred, not freed" 2 s.Pool.deferred_frees;
      check_int "cell still live" 1 s.Pool.cells_live;
      check_int "blob still live" 1 s.Pool.blobs_live;
      (* The pinned reader holds the epoch: ticking must not free. *)
      for _ = 1 to 10 do
        Epoch.tick h
      done;
      check_int "still deferred under pin" 2 (Pool.stats p).Pool.deferred_frees);
  Epoch.quiesce m;
  let s = Pool.stats p in
  check_int "frees ran after quiesce" 0 s.Pool.deferred_frees;
  check_int "cell reclaimed" 0 s.Pool.cells_live;
  check_int "blob reclaimed" 0 s.Pool.blobs_live;
  Epoch.unregister h;
  Epoch.unregister reader

let test_leak_oracle () =
  let p = Pool.create () in
  let c = Pool.alloc_cell p in
  let b = Pool.alloc_blob p "live" in
  (match Pool.check_leaks p ~reachable_cells:1 ~reachable_blobs:1 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "clean pool flagged: %s" m);
  (* Wrong reachable counts must be reported, not silently accepted. *)
  check_bool "undercount detected" true
    (Result.is_error (Pool.check_leaks p ~reachable_cells:0 ~reachable_blobs:1));
  check_bool "overcount detected" true
    (Result.is_error (Pool.check_leaks p ~reachable_cells:1 ~reachable_blobs:2));
  (* An outstanding deferred free is a dirty state for the oracle. *)
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let reader = Epoch.register m in
  Epoch.pin reader (fun () ->
      Pool.retire_blob p h b;
      check_bool "deferred free flagged" true
        (Result.is_error (Pool.check_leaks p ~reachable_cells:1 ~reachable_blobs:0)));
  Epoch.quiesce m;
  (match Pool.check_leaks p ~reachable_cells:1 ~reachable_blobs:0 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "post-quiesce pool flagged: %s" msg);
  Pool.free_cell p c;
  Epoch.unregister h;
  Epoch.unregister reader

let suite =
  [
    Alcotest.test_case "cell roundtrip" `Quick test_cell_roundtrip;
    Alcotest.test_case "packed cell fields" `Quick test_packed_cell_fields;
    Alcotest.test_case "blob roundtrip all classes" `Quick test_blob_roundtrip;
    Alcotest.test_case "blob suffix path" `Quick test_blob_suffix_path;
    Alcotest.test_case "size-class reuse" `Quick test_size_class_reuse;
    Alcotest.test_case "epoch-deferred free" `Quick test_deferred_free;
    Alcotest.test_case "leak oracle" `Quick test_leak_oracle;
  ]
