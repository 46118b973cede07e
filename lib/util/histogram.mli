(** Fixed-size log-bucketed histogram of non-negative samples.

    Memory is constant however many samples are added — the reason the
    serving layer keeps its latency record in one instead of a list of
    samples.  Bucket [i] holds the samples in [(g^(i-1), g^i]] with
    [g = (1 + e) / (1 - e)] and reads as [2 g^i / (g + 1)], so a
    percentile is within relative error [e] ({!relative_error}) of the
    exact nearest-rank value {!Stats.percentile} returns, for samples in
    [\[1e-6, 1e6\]] (1 ns to 1000 s, for latencies in milliseconds).
    Samples [<= 0] land in a zero bucket that reads exactly 0; positive
    samples outside the range are clamped to the extreme buckets. *)

type t

val relative_error : float
(** [0.01]: the bound on [|percentile - exact| / exact]. *)

val create : unit -> t
val add : t -> float -> unit

val percentile : float -> t -> float
(** [percentile p h] for [p] in [\[0, 100\]]: the bucket value of the
    nearest-rank sample, as {!Stats.percentile} defines rank.  0 when
    [h] is empty.
    @raise Invalid_argument when [p] is outside [\[0, 100\]]. *)
