(* 32-bit word arithmetic on native OCaml ints.

   Values are stored masked to the low 32 bits (always non-negative as
   OCaml ints).  [signed] reinterprets a stored word as a signed 32-bit
   quantity for comparisons and arithmetic flags. *)

let bits = 32
let mask = 0xFFFF_FFFF
let sign_bit = 0x8000_0000
let modulus = 0x1_0000_0000

let of_int v = v land mask

let signed v =
  let v = v land mask in
  if v land sign_bit <> 0 then v - modulus else v

let is_negative v = v land sign_bit <> 0

(* Addition with carry/overflow flags.  Returns (result, carry, overflow). *)
let add_full a b =
  let a = a land mask and b = b land mask in
  let sum = a + b in
  let r = sum land mask in
  let carry = sum > mask in
  let overflow = is_negative a = is_negative b && is_negative r <> is_negative a in
  (r, carry, overflow)

(* Subtraction [a - b] with borrow/overflow flags. *)
let sub_full a b =
  let a = a land mask and b = b land mask in
  let diff = a - b in
  let r = diff land mask in
  let borrow = a < b in
  let overflow = is_negative a <> is_negative b && is_negative r <> is_negative a in
  (r, borrow, overflow)

let add a b = (a + b) land mask
let sub a b = (a - b) land mask
let mul a b = (signed a * signed b) land mask

let logand a b = (a land b) land mask
let logor a b = (a lor b) land mask
let logxor a b = (a lxor b) land mask
let lognot a = lnot a land mask
let neg a = (- signed a) land mask

let shift_left a n = if n >= bits then 0 else (a lsl n) land mask

let shift_right_logical a n =
  if n >= bits then 0 else (a land mask) lsr n

let shift_right_arith a n =
  if n >= bits then (if is_negative a then mask else 0)
  else (signed a asr n) land mask

(* Unsigned division; division by zero must be caught by the caller. *)
let divu a b = (a land mask) / (b land mask)

let divs a b = (signed a / signed b) land mask

let compare_unsigned a b = compare (a land mask) (b land mask)
