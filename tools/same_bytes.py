"""Check that two source trees write the same bytes through the command line.

    python3 tools/same_bytes.py --parent DIR --change DIR [--work DIR]

DIR is a checkout (for instance a `git archive` of a commit) with its own
src/. In each tree, a fixed OU and a fixed NLD pipeline run every
subcommand of `python3 -m unbiasedpf`, a cached `reference` rerun and a
--config run among them, once at --threads 1 and once at --threads 2. Each
pipeline also logs every command's exit status, standard output and
standard error. Every file the pipelines leave is then compared between the
two trees. The tool exits 0 when all of them match, and otherwise lists the
files that differ and exits 1. The runs go under --work, or under a
temporary directory that is removed afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

MODELS = ("OU", "NLD")
THREADS = (1, 2)
DATA = "gen/data.csv"
REFERENCE = "ref/reference.csv"
CONFIG = "pipeline.cfg"
LOG = "commands.log"


def pipeline(model):
    """The argument lists of one model's pipeline, without --threads, with
    paths relative to its run directory."""
    on_data = ["--data", DATA, "--model", model]
    reference = ["reference", *on_data, "--level", "4", "--particles", "64", "--repeats", "3",
                 "--seed", "4", "--out", "ref"]
    randomized = [*on_data, "--reference", REFERENCE, "--m", "40", "--lmax", "2", "--n0", "4",
                  "--seed", "5"]
    return [
        ["generate", "--model", model, "--n", "4", "--seed", "3", "--out", "gen"],
        reference,
        reference,  # the rerun reads the cached reference
        ["run-unbiased", *randomized, "--out", "unbiased"],
        ["run-single-rand", *randomized, "--out", "single"],
        ["run-mlpf", *on_data, "--reference", REFERENCE, "--levels", "1,2", "--repeats", "4",
         "--seed", "6", "--out", "mlpf"],
        ["sweep-variance", *on_data, "--levels", "1,2", "--particles", "32", "--repeats", "4",
         "--seed", "7", "--out", "sweep"],
        ["compare", "--unbiased", "unbiased/unbiased_mse_vs_cost.csv",
         "--mlpf", "mlpf/mlpf_mse_cost.csv", "--out", "compare"],
        ["run-unbiased", "--config", CONFIG, "--lmax", "1", "--out", "config"],
    ]


def config_text(model):
    """A config file for the whole pipeline, so it sets keys that the
    subcommand it is given to does not read."""
    return (f"model = {model}\ndata = {DATA}\nreference = {REFERENCE}\nm = 24\nn0 = 4\n"
            "seed = 8\nstrict = true\nlevels = 1,2\nrepeats = 4\n")


def run_tree(tree, work):
    """Run every pipeline with tree's src/ under work/<model>-t<threads>."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for model in MODELS:
        for threads in THREADS:
            rundir = os.path.join(work, f"{model}-t{threads}")
            os.makedirs(rundir)
            with open(os.path.join(rundir, CONFIG), "w") as fh:
                fh.write(config_text(model))
            log = []
            for argv in pipeline(model):
                argv = [*argv, "--threads", str(threads)]
                done = subprocess.run([sys.executable, "-m", "unbiasedpf", *argv], cwd=rundir,
                                      env=env, capture_output=True, text=True)
                log.append(f"$ {' '.join(argv)}\nexit {done.returncode}\n"
                           + (done.stdout + done.stderr).replace(tree, "<tree>"))
            with open(os.path.join(rundir, LOG), "w") as fh:
                fh.write("".join(log))


def _files(root):
    return {
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    }


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def differing_files(a, b):
    """The sorted relative paths of the files under a and b that differ in
    their bytes or exist on one side only."""
    in_a, in_b = _files(a), _files(b)
    return sorted(
        rel for rel in in_a | in_b
        if rel not in in_a or rel not in in_b
        or _read(os.path.join(a, rel)) != _read(os.path.join(b, rel))
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--work", help="keep the runs in this new directory")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="same-bytes-")
    try:
        sides = {side: os.path.join(work, side) for side in ("parent", "change")}
        run_tree(args.parent, sides["parent"])
        run_tree(args.change, sides["change"])
        differ = differing_files(sides["parent"], sides["change"])
        total = len(_files(sides["parent"]) | _files(sides["change"]))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for rel in differ:
        print(f"differs: {rel}")
    print(f"{total - len(differ)} of {total} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
