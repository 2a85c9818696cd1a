type key = Siphash.key

let key name = Siphash.key_of_string ("oasis.wal:" ^ name)
let header = 24
let digits = "0123456789abcdef"

(* The low [4 * n] bits of [v] as [n] lowercase hex digits at [off]. *)
let put_hex b off n v =
  for i = 0 to n - 1 do
    Bytes.set b (off + i) digits.[(v lsr (4 * (n - 1 - i))) land 15]
  done

(* [n] lowercase hex digits at [off] as an int; [-1] on any other byte. *)
let get_hex s off n =
  let rec go i acc =
    if i = n then acc
    else
      match s.[off + i] with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 87))
      | _ -> -1
  in
  go 0 0

(* The checksum's 16 hex digits are written and read as two 32-bit halves,
   which fit an [int]. *)
let hi h = Int64.to_int (Int64.shift_right_logical h 32)
let lo h = Int64.to_int h land 0xffff_ffff

let write key b off payload =
  let len = String.length payload in
  let h = Siphash.hash key payload in
  put_hex b off 8 len;
  put_hex b (off + 8) 8 (hi h);
  put_hex b (off + 16) 8 (lo h);
  Bytes.blit_string payload 0 b (off + header) len;
  off + header + len

let encode_all key payloads =
  let b = Bytes.create (List.fold_left (fun n p -> n + header + String.length p) 0 payloads) in
  ignore (List.fold_left (write key b) 0 payloads);
  Bytes.unsafe_to_string b

let encode key payload = encode_all key [ payload ]

type decoded = Payload of string * int | Short of int | Bad

let decode_at key s ~off ~limit =
  if limit - off < 8 then Short header
  else
    let len = get_hex s off 8 in
    if len < 0 then Bad
    else if limit - off < header + len then Short (header + len)
    else
      let payload = String.sub s (off + header) len in
      let h = Siphash.hash key payload in
      if get_hex s (off + 8) 8 = hi h && get_hex s (off + 16) 8 = lo h then
        Payload (payload, off + header + len)
      else Bad

let scan key s =
  let limit = String.length s in
  let rec go off acc =
    match decode_at key s ~off ~limit with
    | Payload (p, next) -> go next (p :: acc)
    | Short _ | Bad -> List.rev acc
  in
  go 0 []

let pack fields =
  let b = Bytes.create (List.fold_left (fun n f -> n + 8 + String.length f) 0 fields) in
  ignore
    (List.fold_left
       (fun off f ->
         let len = String.length f in
         put_hex b off 8 len;
         Bytes.blit_string f 0 b (off + 8) len;
         off + 8 + len)
       0 fields);
  Bytes.unsafe_to_string b

let unpack s =
  let total = String.length s in
  let rec go off acc =
    if off = total then Some (List.rev acc)
    else if total - off < 8 then None
    else
      let len = get_hex s off 8 in
      if len < 0 || total - off - 8 < len then None
      else go (off + 8 + len) (String.sub s (off + 8) len :: acc)
  in
  go 0 []
