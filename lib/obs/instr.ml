module Ring = struct
  type 'a t = {
    lock : Mutex.t;
    cap : int;
    mutable slots : 'a array;  (* [||] until the first push *)
    mutable len : int;
    mutable next : int;  (* the slot the next push writes *)
    mutable dropped : int;
  }

  let create cap =
    if cap <= 0 then invalid_arg "Instr.Ring.create: capacity must be positive";
    { lock = Mutex.create (); cap; slots = [||]; len = 0; next = 0; dropped = 0 }

  let dropped r = r.dropped

  let push r x =
    Mutex.protect r.lock (fun () ->
        if Array.length r.slots = 0 then r.slots <- Array.make r.cap x;
        r.slots.(r.next) <- x;
        r.next <- (r.next + 1) mod r.cap;
        if r.len = r.cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1)

  (* the [i]-th oldest value held; call under the lock *)
  let nth r i = r.slots.((r.next - r.len + i + r.cap) mod r.cap)
  let oldest r = List.init r.len (nth r)

  let newest r =
    Mutex.protect r.lock (fun () -> if r.len = 0 then None else Some (nth r (r.len - 1)))

  let newest_first r =
    Mutex.protect r.lock (fun () -> List.init r.len (fun i -> nth r (r.len - 1 - i)))

  let oldest_first r = Mutex.protect r.lock (fun () -> oldest r)

  let drain r =
    Mutex.protect r.lock (fun () ->
        let l = oldest r in
        r.len <- 0;
        l)

  let clear r = Mutex.protect r.lock (fun () -> r.len <- 0)
end

let switch env =
  ref
    (match Sys.getenv_opt env with
    | Some ("0" | "off" | "false" | "no" | "OFF" | "FALSE") -> false
    | _ -> true)

let threshold env = ref (Option.bind (Sys.getenv_opt env) float_of_string_opt)

let slow_log threshold ~event ~total_ns fields =
  let total_ms = float_of_int total_ns /. 1e6 in
  match !threshold with
  | Some th when total_ms > th ->
    let timing = [ ("total_ms", Json.Num total_ms); ("threshold_ms", Json.Num th) ] in
    prerr_endline
      (Json.to_string (Json.Obj (("event", Json.Str event) :: fields timing)))
  | _ -> ()
