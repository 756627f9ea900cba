(** The benchmark's own arithmetic, kept free of I/O so it can be tested
    on synthetic inputs: order statistics, the tail-percentile sample rule,
    span self time, the anatomy residual and the fixed-step capacity
    search. *)

val median : float array -> float
(** Median of a copy (mean of the two middle values on even length);
    [nan] on an empty array. *)

val quantile : float array -> float -> float
(** [Chaoschain_net.Loadgen.quantile] (nearest rank on a sorted copy),
    but [nan] on an empty array. *)

val min_samples_for : float -> int
(** [min_samples_for p] is the least sample count that leaves at least ten
    samples beyond the [p] quantile: [ceil (10 / (1 - p))]. *)

val tail_ok : n:int -> float -> bool
(** [tail_ok ~n p]: [n] samples support reporting the [p] quantile. *)

val self_time : start:float -> stop:float -> (float * float) list -> float
(** A span's duration minus the part of [[start, stop]] covered by the
    given child intervals (overlaps counted once, parts outside the parent
    clipped off). *)

val residual : total:float -> parts:float list -> float
(** [(total - sum parts) / total]: the share of an end-to-end time that no
    layer accounts for. [nan] when [total <= 0]. *)

(** {1 Capacity search} *)

type verdict =
  | Pass of float  (** the step met every criterion; its p99 in ms *)
  | Fail of float  (** it missed one; its p99 (may be [infinity]) *)
  | Unscored       (** the generator, not the server, was the bottleneck *)

type step = { rate : float; verdict : verdict }

val search :
  lo:float -> hi:float -> steps:int -> limit:float -> (float -> verdict) ->
  float * step list
(** Bisect the offered rate on a log scale between [lo] and [hi] in exactly
    [steps] probes, so the search's length never depends on the code's
    speed. A passing probe raises the floor, anything else (including an
    unscored probe) lowers the ceiling. The result is the highest passing
    rate, refined by interpolating log p99 linearly in the rate towards
    [limit] between it and the lowest failing probe above it (when that
    probe's p99 is finite); [lo] when nothing passed.
    Also returns the probes in the order they ran. *)

val histogram_quantile : (float * int) list -> float -> float
(** [histogram_quantile buckets q] over (upper bound, count) buckets in
    ascending order, interpolating linearly inside the bucket that holds
    the [q] quantile (from the previous bound, 0 for the first). A quantile
    in an unbounded last bucket reads as that bucket's lower bound. [nan]
    when the histogram is empty. *)

val windowed_quantile : max_windows:int -> float array -> float -> float
(** Cut the samples (in arrival order) into as many equal consecutive
    windows as keep ten samples beyond the quantile in each, at most
    [max_windows] and at least one, and return the median of the windows'
    quantiles: one stall then moves one window, not the figure. *)
