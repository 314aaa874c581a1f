#!/usr/bin/env python3
"""Tuned cost as a function of the per-rectangle horizon T.

Runs the epsilon-greedy tuner at several T values and reports the final
running-mean cost and the arm it settled on, showing the weak T-dependence.

Example:
    python scripts/run_t_sensitivity.py --model sin --a 0 --b 7 --x 3 \
        --M 5000 --seed 7 0.25 0.5 1 2
"""

import argparse

from exitwalk.bandit import bandit_diff_exit
from exitwalk.cli import parse_params
from exitwalk.model import build_model
from exitwalk.rng import substream

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("T_values", nargs="+", type=float)
parser.add_argument("--model", default="sin")
parser.add_argument("--params", default="")
parser.add_argument("--a", type=float, default=0.0)
parser.add_argument("--b", type=float, default=7.0)
parser.add_argument("--x", type=float, default=3.0)
parser.add_argument("--N0", type=int, default=21)
parser.add_argument("--epsilon", type=float, default=0.1)
parser.add_argument("--M", type=int, default=5000)
parser.add_argument("--seed", type=int, default=7)
parser.add_argument("--reward", default="work")

if __name__ == "__main__":
    args = parser.parse_args()
    model = build_model(args.model, parse_params(args.params))
    print("T,final_running_mean,greedy_arm")
    for T in args.T_values:
        rng = substream(args.seed, "tsweep", repr(T))
        _, trace = bandit_diff_exit(
            rng, model, args.x, args.a, args.b, T, args.N0, args.epsilon, args.M,
            reward=args.reward,
        )
        print(f"{T},{trace.rows[-1][3]},{trace.state.greedy_arm()}")
