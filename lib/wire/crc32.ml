(* CRC-32/IEEE, reflected, init and final xor 0xFFFFFFFF — the variant
   used by zlib, Ethernet and PNG.

   Slicing-by-8: [tables] holds eight 256-entry tables, where entry
   [k * 256 + b] is the CRC register after byte [b] followed by [k] zero
   bytes.  The main loop folds eight bytes per step with eight independent
   lookups; a bytewise loop (table 0 alone, the classic algorithm) finishes
   the tail.  The register lives in a native [int] (63 bits hold the 32
   comfortably), so no [int32] is boxed per byte or per step — only the
   result of each call. *)

(* Built at module init, not lazily: client and reader domains frame
   concurrently, and racing a [Lazy.force] raises [Lazy.Undefined]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Indexes are masked to 0..255, so the lookups cannot leave the table. *)
let[@inline] tbl k b = Array.unsafe_get tables ((k lsl 8) lor b)

let[@inline] u32_at s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

(* [c] is the pre-inverted register; the range is already checked. *)
let fold c s pos len =
  let c = ref c and i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let lo = !c lxor u32_at s !i and hi = u32_at s (!i + 4) in
    c :=
      tbl 7 (lo land 0xff)
      lxor tbl 6 ((lo lsr 8) land 0xff)
      lxor tbl 5 ((lo lsr 16) land 0xff)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xff)
      lxor tbl 2 ((hi lsr 8) land 0xff)
      lxor tbl 1 ((hi lsr 16) land 0xff)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := tbl 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF in
  Int32.of_int (fold c s pos len lxor 0xFFFFFFFF)

(* Read-only over the bytes for the duration of the call, so viewing them
   as a string is safe and copies nothing. *)
let update_bytes crc b pos len = update crc (Bytes.unsafe_to_string b) pos len
let digest s = update 0l s 0 (String.length s)
