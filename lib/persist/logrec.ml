open Xutil

type t =
  | Put of { key : string; version : int64; timestamp : int64; columns : string array }
  | Remove of { key : string; version : int64; timestamp : int64 }
  | Marker of { timestamp : int64 }
  | Seal of { timestamp : int64 }

let timestamp = function
  | Put { timestamp; _ } | Remove { timestamp; _ } | Marker { timestamp } | Seal { timestamp }
    ->
      timestamp

let version = function
  | Put { version; _ } | Remove { version; _ } -> version
  | Marker _ | Seal _ -> 0L

let key = function Put { key; _ } | Remove { key; _ } -> key | Marker _ | Seal _ -> ""

let put_kind = 1

let remove_kind = 2

let marker_kind = 3

let seal_kind = 4

let encode_payload w r =
  match r with
  | Put { key; version; timestamp; columns } ->
      Binio.write_u8 w put_kind;
      Binio.write_u64 w timestamp;
      Binio.write_u64 w version;
      Binio.write_string w key;
      Binio.write_varint w (Array.length columns);
      Array.iter (Binio.write_string w) columns
  | Remove { key; version; timestamp } ->
      Binio.write_u8 w remove_kind;
      Binio.write_u64 w timestamp;
      Binio.write_u64 w version;
      Binio.write_string w key
  | Marker { timestamp } ->
      Binio.write_u8 w marker_kind;
      Binio.write_u64 w timestamp
  | Seal { timestamp } ->
      Binio.write_u8 w seal_kind;
      Binio.write_u64 w timestamp

(* Frame in place: reserve the 8-byte header, write the payload behind
   it, then back-patch the CRC of that region and its length. *)
let frame w write_payload x =
  let start = Binio.length w in
  Binio.write_u64 w 0L;
  write_payload w x;
  let len = Binio.length w - start - 8 in
  let crc = Crc32c.mask (Crc32c.digest (Binio.unsafe_bytes w) ~pos:(start + 8) ~len) in
  Binio.patch_u32 w ~pos:start (Int32.to_int crc land 0xFFFFFFFF);
  Binio.patch_u32 w ~pos:(start + 4) len

(* The CRC check of the frame whose [len]-byte payload starts at [pos],
   computed where the payload lies. *)
let crc_ok buf ~crc ~pos ~len =
  Int32.equal (Crc32c.unmask crc) (Crc32c.digest (Bytes.unsafe_of_string buf) ~pos ~len)

let encode w r = frame w encode_payload r

let encode_string r =
  let w = Binio.writer () in
  encode w r;
  Binio.contents w

type decode_result = Record of t * int | Need_more | Corrupt

let decode_payload r =
  let kind = Binio.read_u8 r in
  let timestamp = Binio.read_u64 r in
  if kind = marker_kind then Marker { timestamp }
  else if kind = seal_kind then Seal { timestamp }
  else begin
  let version = Binio.read_u64 r in
  let key = Binio.read_string r in
  if kind = put_kind then begin
    let ncols = Binio.read_varint r in
    if ncols > 65536 then raise Binio.Truncated;
    let columns = Array.init ncols (fun _ -> Binio.read_string r) in
    Put { key; version; timestamp; columns }
  end
  else if kind = remove_kind then Remove { key; version; timestamp }
  else raise Binio.Truncated
  end

let decode buf ~pos =
  let avail = String.length buf - pos in
  if avail < 8 then Need_more
  else begin
    let r = Binio.reader ~pos buf in
    let crc = Int32.of_int (Binio.read_u32 r) in
    let len = Binio.read_u32 r in
    if len > 16 * 1024 * 1024 then Corrupt
    else if avail < 8 + len then Need_more
    else begin
      if not (crc_ok buf ~crc ~pos:(pos + 8) ~len) then Corrupt
      else
        (* A payload must decode within its own frame. *)
        match decode_payload r with
        | record when r.Binio.pos <= pos + 8 + len -> Record (record, 8 + len)
        | _ | (exception Binio.Truncated) -> Corrupt
    end
  end

let decode_all_counted buf =
  let rec go pos acc =
    if pos >= String.length buf then (List.rev acc, `Clean, pos)
    else
      match decode buf ~pos with
      | Record (r, consumed) -> go (pos + consumed) (r :: acc)
      | Need_more -> (List.rev acc, `Truncated, pos)
      | Corrupt -> (List.rev acc, `Corrupt, pos)
  in
  go 0 []

let decode_all buf =
  let records, ending, _consumed = decode_all_counted buf in
  (records, ending)
