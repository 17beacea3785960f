(* The four xoshiro256** state words live unboxed in a 32-byte buffer,
   read and written with [Bytes.get/set_int64_le].  Mutable [int64] record
   fields would box a fresh [Int64] on every store, four per draw.  Here
   the arithmetic stays unboxed and [bits64] is inlined into the draws
   below, so [int] and [bernoulli] allocate nothing and [float] boxes only
   its result. *)
type t = Bytes.t

(* splitmix64 is used only to expand seeds into full xoshiro state; it is
   the seeding procedure recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64 state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  result

let split t = of_seed64 (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits removes modulo bias. *)
  let mask = Int64.shift_right_logical (bits64 t) 2 in
  let n = Int64.to_int mask in
  let n = if n < 0 then -n else n in
  if bound land (bound - 1) = 0 then n land (bound - 1) else n mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 random bits mapped to [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let unit = float_of_int bits *. (1.0 /. 9007199254740992.0) in
  unit *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] bernoulli t p = float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))
