(** Adaptive (Neyman-style) budget allocation across strata.

    Pure integer arithmetic — no RNG, no floats compared for equality —
    so identical inputs always produce identical allocations regardless
    of domain count or resume point.  Used by {!Engine.collect} (guided
    simulation budget); see DESIGN.md §6j. *)

(** [allocate ~budget ~floor_frac ~sizes ~scores] splits [budget] draws
    over strata of population [sizes] with learning-complexity
    [scores].  Guarantees, in priority order:
    - the allocation sums to [budget] exactly;
    - every nonempty stratum gets at least
      [max 1 (floor_frac * budget * size_h / total_size)] draws
      (the floor: no stratum starves, so a mis-estimated pilot can cost
      efficiency but never coverage) — when the budget is too small for
      every floor, nonempty strata get budget/k each, remainder to the
      lowest ids;
    - the remaining budget is distributed proportionally to
      [size_h * (score_h + eps)] by largest-remainder rounding, ties
      to the lower stratum id.
    Empty strata always get 0.  Raises [Invalid_argument] on negative
    budget, mismatched array lengths, or [floor_frac] outside [0,1]. *)
val allocate :
  budget:int -> floor_frac:float -> sizes:int array -> scores:float array ->
  int array

(** [pilot_budget ~budget ~n_strata ~pilot_frac ~min_per_stratum] — the
    uniform pilot draw size: [pilot_frac * budget], at least
    [min_per_stratum * n_strata], capped at [budget / 2] (and at
    [budget]). *)
val pilot_budget :
  budget:int -> n_strata:int -> pilot_frac:float -> min_per_stratum:int -> int

(** [complexity ~first ~last] — scalar learning-complexity score of a
    stratum from its pilot loss curve: the residual loss after the
    pilot plus the still-unrealized improvement rate,
    [max last 0 + max (first - last) 0].  High residual loss or a
    steep still-descending curve both mean the stratum has more to
    teach.  Non-finite inputs are clamped to a large finite penalty so
    a diverged pilot ranks the stratum maximally complex instead of
    poisoning the allocation. *)
val complexity : first:float -> last:float -> float
