(* Length-prefixed, CRC-checked frames: the common envelope of the
   write-ahead log's records and the serve protocol's messages.

   frame := u32 payload-length L | u32 CRC-32(payload) | L payload bytes

   One implementation so the two consumers cannot drift: [Wal.append]
   writes [build] output to the log, [Ivm_serve] writes it to sockets
   and reads it back with [read_fd]. *)

exception Closed

(* A frame header naming a multi-gigabyte payload is a desynchronized or
   hostile peer, not a real message; failing fast beats allocating. *)
let max_payload = 1 lsl 26

(* The whole frame in one block: the payload is written in place after
   a placeholder header, whose length and CRC are then filled in. *)
let build size fill =
  let frame =
    Wire.block (size + 8) (fun w ->
        Wire.put_u32 w size;
        Wire.put_u32 w 0;
        fill w)
  in
  Bytes.set_int32_le frame 4 (Crc32.update_bytes 0l frame 8 size);
  Bytes.unsafe_to_string frame

let encode payload = build (String.length payload) (fun w -> Wire.put_raw w payload)

let rec read_exact fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then raise Closed;
    read_exact fd buf (off + n) (len - n)
  end

let read_fd ?(max_payload = max_payload) fd : string =
  let hdr = Bytes.create 8 in
  read_exact fd hdr 0 8;
  let len = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xFFFFFFFF in
  if len > max_payload then
    raise
      (Wire.Corrupt
         (Printf.sprintf "frame claims %d payload bytes (limit %d)" len max_payload));
  let stored_crc = Bytes.get_int32_le hdr 4 in
  let payload = Bytes.create len in
  read_exact fd payload 0 len;
  let payload = Bytes.unsafe_to_string payload in
  let computed = Crc32.digest payload in
  if computed <> stored_crc then
    raise
      (Wire.Corrupt
         (Printf.sprintf "frame CRC mismatch (stored %08lx, computed %08lx)"
            stored_crc computed));
  payload

let send fd (frame : string) : unit =
  let n = String.length frame in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write_substring fd frame !off (n - !off) in
    if w <= 0 then raise Closed;
    off := !off + w
  done
