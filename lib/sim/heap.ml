(* Structure-of-arrays layout: times live in a flat float array (unboxed
   by the runtime), seqs and int arguments in int arrays, payloads in
   their own array.  Sift comparisons touch only the scalar arrays — no
   pointer chasing — and push/drop_min allocate nothing except when the
   arrays grow. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable args : int array;
  mutable payloads : 'a array;
  mutable len : int;
  hint : int;
}

let create ?(hint = 16) () =
  {
    times = [||];
    seqs = [||];
    args = [||];
    payloads = [||];
    len = 0;
    hint = Stdlib.max 1 hint;
  }

let size t = t.len
let is_empty t = t.len = 0

let lt t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let x = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- x;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let a = t.args.(i) in
  t.args.(i) <- t.args.(j);
  t.args.(j) <- a;
  let p = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.len && lt t left !smallest then smallest := left;
  if right < t.len && lt t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t payload =
  let capacity = Stdlib.max t.hint (Stdlib.max 16 (2 * t.len)) in
  (* Slots at or past [len] are never read, so the float column can skip
     initialization; the int and payload columns must be filled for the
     GC. *)
  let times = Array.create_float capacity in
  let seqs = Array.make capacity 0 in
  let args = Array.make capacity 0 in
  let payloads = Array.make capacity payload in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.args 0 args 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.args <- args;
  t.payloads <- payloads

let[@inline] push_arg t ~time ~seq ~arg payload =
  if t.len = Array.length t.times then grow t payload;
  let i = t.len in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.args.(i) <- arg;
  t.payloads.(i) <- payload;
  t.len <- i + 1;
  sift_up t i

let push t ~time ~seq payload = push_arg t ~time ~seq ~arg:0 payload

(* The sum is formed here, not by the caller: a float crossing a
   non-inlined call is boxed, and [base] and [delay] usually arrive
   already boxed, so passing them as they are allocates nothing. *)
let push_after t ~base ~delay ~seq ~arg payload =
  push_arg t ~time:(base +. delay) ~seq ~arg payload

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let min_seq t =
  if t.len = 0 then invalid_arg "Heap.min_seq: empty heap";
  t.seqs.(0)

let compare_min_time t x =
  if t.len = 0 then invalid_arg "Heap.compare_min_time: empty heap";
  Float.compare t.times.(0) x

let min_arg t =
  if t.len = 0 then invalid_arg "Heap.min_arg: empty heap";
  t.args.(0)

let min_payload t =
  if t.len = 0 then invalid_arg "Heap.min_payload: empty heap";
  t.payloads.(0)

let drop_min t =
  if t.len = 0 then invalid_arg "Heap.drop_min: empty heap";
  t.len <- t.len - 1;
  let l = t.len in
  if l > 0 then begin
    t.times.(0) <- t.times.(l);
    t.seqs.(0) <- t.seqs.(l);
    t.args.(0) <- t.args.(l);
    t.payloads.(0) <- t.payloads.(l);
    sift_down t 0
  end

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) and payload = t.payloads.(0) in
    drop_min t;
    Some (time, seq, payload)
  end

let peek t =
  if t.len = 0 then None else Some (t.times.(0), t.seqs.(0), t.payloads.(0))
