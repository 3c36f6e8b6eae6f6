(** 32-bit word arithmetic on native OCaml ints.

    Stored values are masked to the low 32 bits and always
    non-negative as OCaml ints; [signed] reinterprets them as signed
    32-bit quantities. *)

val mask : int
val sign_bit : int

val of_int : int -> int
val signed : int -> int
val is_negative : int -> bool

(** [(result, carry, overflow)] of 32-bit addition. *)
val add_full : int -> int -> int * bool * bool

(** [(result, borrow, overflow)] of 32-bit subtraction [a - b]. *)
val sub_full : int -> int -> int * bool * bool

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
val logand : int -> int -> int
val logor : int -> int -> int
val logxor : int -> int -> int
val lognot : int -> int
val neg : int -> int
val shift_left : int -> int -> int
val shift_right_logical : int -> int -> int
val shift_right_arith : int -> int -> int

(** Unsigned division; caller must rule out a zero divisor. *)
val divu : int -> int -> int

val divs : int -> int -> int
val compare_unsigned : int -> int -> int
