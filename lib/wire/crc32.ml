(* CRC-32/IEEE, reflected, init and final xor 0xFFFFFFFF — the variant
   used by zlib, Ethernet and PNG.  Table-driven, one byte per step. *)

(* Built at module init, not lazily: client and reader domains frame
   concurrently, and racing a [Lazy.force] raises [Lazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let fold_byte table crc b =
  Int32.logxor
    table.(Int32.to_int (Int32.logand (Int32.logxor crc (Int32.of_int b)) 0xFFl))
    (Int32.shift_right_logical crc 8)

let update_gen length get crc s pos len =
  if pos < 0 || len < 0 || pos > length s - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    c := fold_byte table !c (Char.code (get s i))
  done;
  Int32.logxor !c 0xFFFFFFFFl

let update crc s pos len = update_gen String.length String.get crc s pos len
let update_bytes crc b pos len = update_gen Bytes.length Bytes.get crc b pos len
let digest s = update 0l s 0 (String.length s)
