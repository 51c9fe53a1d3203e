#!/usr/bin/env python3
"""Empirical-vs-exact segment statistics as the dataset grows.

Uses the identity feature map so the two window contents actually differ;
under each family's bundled (aliasing) model the TV distance is exactly 0
at every sample size, which is the indistinguishability result itself.
"""

import shortsight as ss


def main() -> None:
    seed = 12
    for name, build in (
        ("prefix", lambda: ss.build_prefix(3)),
        ("greedy", lambda: ss.build_greedy(3, 10)),
        ("aliasing", lambda: ss.build_aliasing(3)),
    ):
        mdp, model = build()
        behavior = ss.half_behavior(mdp)
        ident = ss.ObservationModel.make(
            model.window_length, model.window_starts, ss.identity_phi(mdp)
        )
        exact = ss.segment_distribution(mdp, behavior, ident)
        exact_aliased = ss.segment_distribution(mdp, behavior, model)
        print(f"== {name} (seed {seed}, 50/50 behavior)")
        for n in (100, 1000, 10000):
            ds = ss.sample_dataset(mdp, behavior, n, seed)
            tv_ident = max(ss.tv_distance(ss.empirical_segments(ds, ident), exact).values())
            tv_alias = max(ss.tv_distance(ss.empirical_segments(ds, model), exact_aliased).values())
            print(
                f"   n={n:>6}: TV identity-phi = {str(tv_ident):>12} ({float(tv_ident):.4f})"
                f"   TV bundled model = {tv_alias}"
            )


if __name__ == "__main__":
    main()
