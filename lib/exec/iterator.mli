(** Volcano-style demand-driven iterators: open / next / close.

    Re-open contract: [open_] must fully rewind the operator — discard
    any buffered output from a previous consumption and reset every
    position — so that opening an iterator again (even after a partial
    drain followed by [close]) replays the same stream from the start.
    Operators that buffer produced tuples across [next] calls must clear
    that buffer in [open_]; relying on [close] alone is wrong because
    [close] may run while results are still pending.  {!consume} is
    therefore re-entrant: consuming the same iterator twice yields the
    same multiset. *)

type tuple = int array

type t = {
  schema : Dqep_algebra.Schema.t;
  open_ : unit -> unit;
  next : unit -> tuple option;
  close : unit -> unit;
}

val consume : t -> tuple list
(** Open, drain and close, returning all produced tuples in order.
    Re-entrant: see the re-open contract above. *)

val count : t -> int
(** Open, drain and close, returning only the tuple count. *)

val remap : target:Dqep_algebra.Schema.t -> t -> t
(** Present an iterator under [target]'s column order, permuting each
    tuple by column name.  Identity when the orders already agree.
    @raise Invalid_argument if a target column is missing. *)

val of_list : Dqep_algebra.Schema.t -> tuple list -> t
(** A materialized input, for tests. *)
