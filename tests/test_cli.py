import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gamowkit
from gamowkit import (Arrow, DomainViolationError, Kind, ResonancePole, ResultTable, Scenario,
                      derive_table, evolution_table, lineshape, run_decay)
from gamowkit import cli
from gamowkit.cli import ARROWS, KINDS, _commands, _read, build_parser, main
from gamowkit.core import TimeHalf, canonical_time_domain
from gamowkit.grid import _BLOCK_ROWS
from gamowkit.curves import MAX_GRID_STEPS
from gamowkit.symmetry import MAX_TWICE_J


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NO_INVERSE = "; semigroup evolution has no inverse across t=0"
GIVE_ONE = "give one of evolve, decay, lineshape, table, rep-check, cross-id"
TOO_NARROW = "is too narrow for the default window E_R +- 25*Gamma around --er"
# Every command line that the CLI itself rejects, as (argv, config-file bytes or None, message).
# "{cfg}" stands for the row's config file, which exists only where the row gives its bytes.
REJECTED = [
    # a grid outside its branch's half-domain names its first point outside, in grid order
    ("decay --tmin -1 --tmax 1 --steps 3", None,
     "t=-1.0 lies outside the t>=0 half-domain of branch 4b" + NO_INVERSE),
    ("decay --tmin=-1 --tmax 1 --steps 3", None,
     "t=-1.0 lies outside the t>=0 half-domain of branch 4b" + NO_INVERSE),
    ("decay --kind grow --tmin=-1 --tmax 2 --steps 4", None,
     "t=1.0 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    ("evolve --kind grow --tmin=-3 --tmax 0.5 --steps 1100", None,
     "t=0.0031847133757962887 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    # the half-domain over the whole grid before the phase, whose E_R * t overflows at -1e10
    ("evolve --er 1e300 --kind grow --tmin=-1e10 --tmax 1 --steps 1100", None,
     "t=1.0 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    ("evolve --arrow exc --kind decay --regime 1 --tmin=-1e-320 --tmax 5 --steps 1100", None,
     "t=-1e-320 lies outside the t>=0 half-domain of branch 13" + NO_INVERSE),
    # a subnormal step overshoots t_max = 0 inside the grid, as np.linspace does
    ("decay --kind grow --tmin=-1.5e-323 --tmax 0 --steps 6", None,
     "t=5e-324 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    ("decay --gamma -0.5", None, "resonance width must be positive, got -0.5"),
    ("decay --gamma inf", None, "resonance width must be finite, got inf"),
    ("decay --er nan", None, "resonance energy must be finite, got nan"),
    ("decay --tmax inf", None, "t_max must be finite, got inf"),
    ("evolve --kind grow --tmin nan", None, "t_min must be finite, got nan"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin -inf", None, "t_min must be finite, got -inf"),
    ("lineshape --emin=-inf --emax=inf", None, "emin must be finite, got -inf"),
    ("lineshape --emax nan", None, "emax must be finite, got nan"),
    # finite bounds whose span overflows float64 are caught before the grid is built
    ("lineshape --emin=-1e308 --emax=1e308 --steps 3", None, "emax - emin must be finite, got inf"),
    ("decay --tmin=-1e308 --tmax=1e308 --steps 3", None, "t_max - t_min must be finite, got inf"),
    ("decay --er=1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got inf"),
    ("decay --er=-1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got -inf"),
    ("evolve --er=1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got inf"),
    ("evolve --er=-1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got -inf"),
    ("decay --steps 1", None, "a scenario grid needs at least 2 steps, got 1"),
    ("lineshape --steps 1", None, "lineshape grid needs at least 2 steps, got 1"),
    # only cap + 1 is run: the check comes before anything is allocated
    (f"decay --steps {MAX_GRID_STEPS + 1}", None,
     f"a scenario grid allows at most {MAX_GRID_STEPS} steps, got {MAX_GRID_STEPS + 1}"),
    (f"lineshape --steps {MAX_GRID_STEPS + 1}", None,
     f"lineshape grid allows at most {MAX_GRID_STEPS} steps, got {MAX_GRID_STEPS + 1}"),
    (f"rep-check --row 4 --twice-j {MAX_TWICE_J + 1}", None,
     f"twice_j must be at most {MAX_TWICE_J}, got {MAX_TWICE_J + 1}"),
    ("rep-check --row 4 --twice-j -1", None, "twice_j must be a nonnegative integer, got -1"),
    ("lineshape --emin 2 --emax 1", None, "emax=1.0 must exceed emin=2.0"),
    ("lineshape --gamma 1e-20 --emin 1 --emax 1", None, "emax=1.0 must exceed emin=1.0"),
    # a bound left to its default needs the whole default window
    ("lineshape --gamma 1e307", None, "energy window E_R +- 25*Gamma must be finite, got -inf"),
    ("lineshape --gamma 1e307 --emin 0", None,
     "energy window E_R +- 25*Gamma must be finite, got -inf"),
    ("lineshape --gamma 7e306 --steps 3", None, "energy window span must be finite, got inf"),
    ("lineshape --gamma 1e-20", None, f"--gamma 1e-20 {TOO_NARROW} 1.0: it rounds to the single "
     "energy 1.0; give --emin and --emax"),
    ("lineshape --gamma 1e-200 --emin 2", None, f"--gamma 1e-200 {TOO_NARROW} 1.0: it rounds to "
     "the single energy 1.0; give --emin and --emax"),
    ("lineshape --er 1e20", None, f"--gamma 0.2 {TOO_NARROW} 1e+20: it rounds to the single energy "
     "1e+20; give --emin and --emax"),
    ("lineshape --gamma 1e-200 --emin 0 --emax 2 --steps 3", None, "resonance width 1e-200 is too "
     "small for a lineshape: (Gamma/2)^2 is below the smallest normal double"),
    ("lineshape --gamma 5e-324 --emin 0 --emax 2 --steps 3", None,
     "resonance width 5e-324 is too small: Gamma/2 rounds to 0"),
    ("rep-check --row 1 --twice-j 0 --gamma 5e-324", None,
     "resonance width 5e-324 is too small: Gamma/2 rounds to 0"),
    ("rep-check --row 1 --twice-j 0 --gamma 1e307", None,
     "energy window E_R +- 25*Gamma must be finite, got -inf"),
    ("rep-check --row 1 --twice-j 0 --gamma 7e306", None,
     "energy window span must be finite, got inf"),
    ("rep-check --row 2", None, "rep-check requires --row and --twice-j"),
    ("cross-id", None, "cross-id requires --branch 5a or --branch 5b"),
    ("decay --config {cfg}", b"volume=11\n", "unknown config keys: volume"),
    ("decay --config {cfg}", b"steps=plenty\n", "invalid value 'plenty' for option 'steps'"),
    ("decay --config {cfg}", b"kind = sideways\n",
     "option 'kind' must be one of ['decay', 'grow'], got 'sideways'"),
    ("table --config {cfg}", b"format = csv\n",
     "option 'format' must be one of ['json', 'text'], got 'csv'"),
    ("rep-check --config {cfg}", b"row = 5\n", "option 'row' must be one of [1, 2, 3, 4], got 5"),
    ("evolve --config {cfg}", b"regime = 2\n", "option 'regime' must be one of [0, 1], got 2"),
    ("cross-id --config {cfg}", b"branch = 4a\n",
     "option 'branch' must be one of ['5a', '5b'], got '4a'"),
    ("lineshape --config {cfg}", b"emin = low\n", "invalid value 'low' for option 'emin'"),
    # a config value is checked before the missing --row or --branch, and before a bad flag value
    ("rep-check --config {cfg}", b"format = csv\n",
     "option 'format' must be one of ['json'], got 'csv'"),
    ("cross-id --config {cfg}", b"format = csv\n",
     "option 'format' must be one of ['json'], got 'csv'"),
    ("decay --gamma -1 --config {cfg}", b"steps=plenty\n",
     "invalid value 'plenty' for option 'steps'"),
    ("decay --config {cfg}", b"steps 5\n", "{cfg}:1: expected key=value, got 'steps 5'"),
    ("decay --config {cfg}", b"=5\n", "{cfg}:1: expected key=value, got '=5'"),
    ("decay --config {cfg}", b"steps = 5\n\xff\n",
     "{cfg}: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    # the position is the bad byte's offset in the file, past a long line or a byte-order mark
    ("decay --config {cfg}", b"#" + b"x" * 9000 + b"\nsteps = 5\n\xff\n",
     "{cfg}: 'utf-8' codec can't decode byte 0xff in position 9012: invalid start byte"),
    ("decay --config {cfg}", b"\xef\xbb\xbfsteps = 5\n\xff\n",
     "{cfg}: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    ("decay --config {cfg}", None, "[Errno 2] No such file or directory: '{cfg}'"),
    # an empty path is a path that cannot be opened, not a missing option
    ("decay --config=", None, "[Errno 2] No such file or directory: ''"),
    ("decay --steps 3 --out=", None, "[Errno 2] No such file or directory: ''"),
    # "--" is no value: argparse reads "--flag=--" as [] before Python 3.13 and as "--" after
    ("decay --steps 3 --out=--", None, "invalid value '--' for option '--out'"),
    ("table --arrow=--", None, "invalid value '--' for option '--arrow'"),
    ("decay --steps=--", None, "invalid value '--' for option '--steps'"),
    ("lineshape --emin=--", None, "invalid value '--' for option '--emin'"),
    ("decay --config {cfg}", b"out = --\nsteps = 3\n", "invalid value '--' for option 'out'"),
    ("table --config {cfg}", b"arrow = --\n", "invalid value '--' for option 'arrow'"),
    # the reader's own rejections, each of a malformed command line; a flag is named in full
    ("", None, f"no command given: {GIVE_ONE}"),
    ("warp", None, f"unknown command 'warp': {GIVE_ONE}"),
    ("decay --bogus 1", None, "unrecognized arguments: '--bogus', '1'"),
    ("cross-id --branch 5a x", None, "unrecognized arguments: 'x'"),
    ("evolve -- -1e3", None, "unrecognized arguments: '--'"),
    ("decay --t 5", None, "ambiguous option '--t': it could be --tmin or --tmax"),
    ("lineshape --help --e=1", None,
     "ambiguous option '--e': it could be --er or --emin or --emax"),
    ("decay --steps", None, "option '--steps' expects a value"),
    ("evolve --tmin --tmax 0", None, "option '--tmin' expects a value"),
    ("evolve --tmin -x", None, "option '--tmin' expects a value"),
    ("decay --steps x", None, "invalid value 'x' for option '--steps'"),
    ("decay --ste 1.5", None, "invalid value '1.5' for option '--steps'"),
    ("decay --tmax 1.5x", None, "invalid value '1.5x' for option '--tmax'"),
    ("table --arrow sideways", None,
     "option '--arrow' must be one of ['exc', 'prep'], got 'sideways'"),
    ("rep-check --row 7 --twice-j 0", None, "option '--row' must be one of [1, 2, 3, 4], got 7"),
    ("cross-id --branch 4a", None, "option '--branch' must be one of ['5a', '5b'], got '4a'"),
    ("decay --help=1", None, "option '--help' takes no value"),
    ("decay -hx", None, "option '--help' takes no value"),
    # a bad value fails where it stands, an unknown flag only at the end, as in argparse
    ("decay --bogus 1 --steps x", None, "invalid value 'x' for option '--steps'"),
    ("decay --bogus --config {cfg}", b"volume=11\n", "unrecognized arguments: '--bogus'"),
]


def _command_line(tmp_path, argv, config):
    """``argv`` split into tokens, with "{cfg}" the path of a file in ``tmp_path`` that holds
    ``config`` if it is not None, and that path."""
    path = tmp_path / "run.cfg"
    if config is not None:
        path.write_bytes(config)
    return [token.replace("{cfg}", str(path)) for token in argv.split()], path


@pytest.mark.parametrize("argv, config, message", REJECTED, ids=[row[0] for row in REJECTED])
def test_rejected_command_line(tmp_path, capsys, argv, config, message):
    # exit 2 with exactly one error line, to stdout and to --out alike; a warning fails the
    # run too (filterwarnings = error in pyproject.toml)
    argv, path = _command_line(tmp_path, argv, config)
    target = tmp_path / "out.txt"
    # a row that sets out, on its line or first in its file, runs only as it stands
    sets_out = (any(token.startswith("--out") for token in argv)
                or (config or b"").startswith(b"out"))
    for run in [argv] if sets_out or not argv else [argv, [*argv, "--out", str(target)]]:
        assert invoke(capsys, *run) == (2, "", f"error: {message.replace('{cfg}', str(path))}\n")
        assert not target.exists()


# Every command line that the CLI accepts here, as (argv, config-file bytes or None, SHA-256 of
# its standard output), with "{cfg}" as in REJECTED.  Rows whose outputs must agree, such as a
# flag and its prefix, or a config file and the same values as flags, carry one digest.  A
# deliberate change of output edits the digests of its rows.
ACCEPTED = [
    # rep-check on each family row, up to the spin cap
    ("rep-check --row 1 --twice-j 0", None,
     "e6eb952b71ab2635b41248338cf10e63488d61fae0ec5836b8eb65ca4e2c9230"),
    ("rep-check --row 1 --twice-j 1", None,
     "1772d5122fc658581588d684a8340d803f4bb6ecbcd1273585e32f6faa17dd10"),
    ("rep-check --row 1 --twice-j 2", None,
     "662fd61768c26e7017410be0431a10e328fd3427783d4da0d252f4b6bfe4475e"),
    ("rep-check --row 1 --twice-j 3", None,
     "4b97c6bf378212e889a04fbfe64d24f4dfbd21f924e4e5409906348ba55f703b"),
    ("rep-check --row 1 --twice-j 7", None,
     "85d8563ff2783a9964e49e7cafd19043c570b647ecee66239ca5f46acbc60569"),
    ("rep-check --row 1 --twice-j 63", None,
     "69cb67c4e13fbb431b2fc87ad74cb2bf1bdc51e4d7f20456ebe1d66b9269675e"),
    ("rep-check --row 1 --twice-j 64", None,
     "1c099d937affd0a2ad715797b5318a1fe9fdf49ea1fd47a4b85ad1e3b9e057c2"),
    ("rep-check --row 1 --twice-j 255", None,
     "fe664d981ac4de6b78f33ec837ff2f2401bee6eab0f8fb658b50dbc29814ab69"),
    ("rep-check --row 1 --twice-j 511", None,
     "6905901b785f529bb9e4f448501786dfd3fbd1952b108bafe1013bde6b9e48ef"),
    ("rep-check --row 1 --twice-j 1024", None,
     "c6598ab53e2ab79253d58a4f129e77438c7b067324281d47498f63b458821d96"),
    ("rep-check --row 1 --twice-j 4096", None,
     "2e14b0d5dc235fbb553702a307e5abd23597f3b139d810f1cdca8522dbd1c597"),
    ("rep-check --row 1 --twice-j 65535", None,
     "a2ed3129a1bb270029901a275031894fc72b551fa49123f6bba81d6efc839b6e"),
    ("rep-check --row 2 --twice-j 0", None,
     "c5ee7df09a4b3e157ffb9ad5d1b25b69f70bb3a77d4d8590b1fdadf1875b034c"),
    ("rep-check --row 2 --twice-j 1", None,
     "045a4427bde3d2f98ece2f1422c41c8eb822ab7f62fdd7e8b766d1dc51055a71"),
    ("rep-check --row 2 --twice-j 2", None,
     "95e19501cdf80fc201bb2d12c6fb79f79812911bba12c427e5ed1b9746591d48"),
    ("rep-check --row 2 --twice-j 3", None,
     "02565d9ecaf2cbb53ce9c2ab7b3b47830957f34567c095fee90d0527792628ab"),
    ("rep-check --row 2 --twice-j 7", None,
     "77a5d730f395109d0ae557f2566642eec7b687bce761fc574298b8abbf025899"),
    ("rep-check --row 2 --twice-j 63", None,
     "9bc7a70256e75f5b72c2534f201a9f2f8c352f9990401912f680ace7794fd92a"),
    ("rep-check --row 2 --twice-j 64", None,
     "56fb674cc8eb88b33b226b4e5368565a56433447c52d105980ca824bf478e657"),
    ("rep-check --row 2 --twice-j 255", None,
     "8d85db756bec20fed2c645cde7733e8372f0d706de8eb5f2c01de889d89e455f"),
    ("rep-check --row 2 --twice-j 511", None,
     "e8238c966481c8277d8c70180fbc93ea4d7563b8b84231f38c7d38a9c4fcf240"),
    ("rep-check --row 2 --twice-j 1024", None,
     "224716a8176324c86c3b017cce47a5d026f783cc739da94bc6e4a795afa19def"),
    ("rep-check --row 2 --twice-j 4096", None,
     "28b8873f74c4c30c7ff0e1d42733aa4143411b0ce0c5e5ee29b81d0858ad09b2"),
    ("rep-check --row 2 --twice-j 65535", None,
     "5ac21de1beaebdea60cf5f2c59aa16c62aaafc11f1b3bfe71b3c836a9b1860e6"),
    ("rep-check --row 3 --twice-j 0", None,
     "bafa4e26268411c1dc7e64daf0166b04fba3fe4d85836842fdeaa6b4fa19d5ba"),
    ("rep-check --row 3 --twice-j 1", None,
     "938b0e2a61d00ae0af635fb06aec6e5c1e37fbd651156093ee9a072f07bd2c99"),
    ("rep-check --row 3 --twice-j 2", None,
     "b245cf6aafaaf0acbe3b29e48dbd3895fec0368b93581ec3516240c4f712c5c5"),
    ("rep-check --row 3 --twice-j 3", None,
     "d92f03dde713a7b06390777d3338a8dff2f01dee8b9a10f4b45c139b1c6b24ab"),
    ("rep-check --row 3 --twice-j 7", None,
     "f62f6d3d17d5f7af53a88aefa3d18ff5118c3ce4315d8e78f5847ed6c9cd8f94"),
    ("rep-check --row 3 --twice-j 63", None,
     "5c2276ec3293419320fb9b8bb083e624325c5501947ed0e06e64bb8d06798d3d"),
    ("rep-check --row 3 --twice-j 64", None,
     "2e586d30bfd98f47d6fd68c0881afacf384f98338067b1618bb466ca264da6d1"),
    ("rep-check --row 3 --twice-j 255", None,
     "a43315d9f501cb84eca919463d2924c7d1d6550622b6dfcf70e794590ddfb71c"),
    ("rep-check --row 3 --twice-j 511", None,
     "4ca305df682d7c6ea3d0a1851127380088a193d3bfb8fda1cd7991480bce6097"),
    ("rep-check --row 3 --twice-j 1024", None,
     "48367aad7e26aaefe3ec33edfc86cefbbed36f9e2015334e3f27234094749c42"),
    ("rep-check --row 3 --twice-j 4096", None,
     "b17f0dd638d6f16641a17d6ad1b9daf78d35fe0fc903eb6943d486fe53c440c7"),
    ("rep-check --row 3 --twice-j 65535", None,
     "4444288645ff79f66d998168e98d75615e2cf7e1b7d1e364b81809b6f0310472"),
    ("rep-check --row 4 --twice-j 0", None,
     "a309f8b2e43adb13670ae4616380b00e04f42e6ad39d50c09e7b1f7ce67a42a1"),
    ("rep-check --row 4 --twice-j 1", None,
     "869076317d24bedec93123d59246463dc712375715bd8174bff099759690e9e3"),
    ("rep-check --row 4 --twice-j 2", None,
     "2e7004d766b8f0ee7dc36e2fadb2c6b83e1cb61e25d4f6572e901c51ff332002"),
    ("rep-check --row 4 --twice-j 3", None,
     "466e76d69258608b2a2976fe4d5b2c12d4185ca7a9601302e3c7bf9ed74af27a"),
    ("rep-check --row 4 --twice-j 7", None,
     "4ff26f9fc76e83b20b984c1de7186816f51ff88f54ed0bf7cf87b86630777615"),
    ("rep-check --row 4 --twice-j 63", None,
     "d08fb1ae138409b471b8642d400ebaae12e3e6391fbf51428637d8ed53145ba8"),
    ("rep-check --row 4 --twice-j 64", None,
     "d479601a587da6d618e9df557b77796f995e40687465df1d5e4767cf527eb2aa"),
    ("rep-check --row 4 --twice-j 255", None,
     "b9bb7aed1d6a8bebbacd2cc59c1b6fccc94d0efb5b6b059e0346df9b09055dca"),
    ("rep-check --row 4 --twice-j 511", None,
     "02ef4dafb0838ab77ab27d10c984c3a944e7fd2522312dae1fd7f0be43834af3"),
    ("rep-check --row 4 --twice-j 1024", None,
     "8149e2517d1f43d0ecb3171a53fec48f57488de0d91b7d4be033ba1340470fc2"),
    ("rep-check --row 4 --twice-j 4096", None,
     "ea39bcfaeff60306b1e8f05ee8326dd05d1a504c35c41c74bdf1f45a1ba5443a"),
    ("rep-check --row 4 --twice-j 65535", None,
     "4d9f01bdb7c9183cdcc19ccba7c5e4d96e65f8225d23220380d874c2b9f13466"),
    # both arrows' state tables; a line without a flag carries its default's digest
    ("table --arrow prep --format json", None,
     "dcd59887fdab4bb1243b49d3f8508438e89dda31ab7b452a59793725c05ab351"),
    ("table --arrow prep --format text", None,
     "7eff292f9422d9f7fb05d3279db71eac0a10cea12a2cc0f9b99e37c9e8128671"),
    ("table --arrow exc --format json", None,
     "326bcea7f356278093e41dc3b827c15d940e0865d6bd34df8301d7f6b51ee26f"),
    ("table --arrow exc --format text", None,
     "3c3b20f98483a2c25650e3c6fd82f49831f69dfc6b50d701a541b87773964dce"),
    ("table --arrow exc", None,
     "326bcea7f356278093e41dc3b827c15d940e0865d6bd34df8301d7f6b51ee26f"),
    ("table --format text", None,
     "7eff292f9422d9f7fb05d3279db71eac0a10cea12a2cc0f9b99e37c9e8128671"),
    # the two cross-identified branches
    ("cross-id --branch 5a", None,
     "c9de742d70819ec303fef9d300a4974e20c65c44e123495c03a29f5395aa9cf6"),
    ("cross-id --branch 5b", None,
     "eff88d70d2990987997c00a74485dd8ea93f2a79398daeab9edd4edd2914aeb8"),
    # decay and evolve on the eight branches (arrow x kind x regime) on their default grids
    ("decay --arrow prep --kind decay --regime 0 --steps 7 --format csv", None,
     "474729b408fe2f5d972e12d4ee3bf2fb2f0271c026f8ab98755f71459838dc67"),
    ("decay --arrow prep --kind decay --regime 0 --steps 7 --format json", None,
     "2c8402349d83a80af0749bcffcb7d9cf791eecb1fcdfc188c7a80f3adf111531"),
    ("decay --arrow prep --kind decay --regime 1 --steps 7 --format csv", None,
     "0f865b927ff005953a5e4417e6c24a1ff887e8fea460749b2227f86801f382e7"),
    ("decay --arrow prep --kind decay --regime 1 --steps 7 --format json", None,
     "a95814486292c79a94f44a4d0aa447d183ac26d17dc5af30288e150d8735dbd0"),
    ("decay --arrow prep --kind grow --regime 0 --steps 7 --format csv", None,
     "5cd7c2c25c84c8855d0d8ee20c9b973f0ba8a390dd4a066a7593f4b95aa7e269"),
    ("decay --arrow prep --kind grow --regime 0 --steps 7 --format json", None,
     "3f600e91ce535772ff72df1d1f6d3e6474ed3c98ebf43d5b7ad716f397188a0f"),
    ("decay --arrow prep --kind grow --regime 1 --steps 7 --format csv", None,
     "d2f3cec57d5c3af18c737f0e1e73b6dd0fff86daf738693b7d513b26cdf307e2"),
    ("decay --arrow prep --kind grow --regime 1 --steps 7 --format json", None,
     "44b4b4470a1d20b0ae3b01dde263995a15be8fe42d2c883640c4ddfa19edcbf9"),
    ("decay --arrow exc --kind decay --regime 0 --steps 7 --format csv", None,
     "474729b408fe2f5d972e12d4ee3bf2fb2f0271c026f8ab98755f71459838dc67"),
    ("decay --arrow exc --kind decay --regime 0 --steps 7 --format json", None,
     "2c8402349d83a80af0749bcffcb7d9cf791eecb1fcdfc188c7a80f3adf111531"),
    ("decay --arrow exc --kind decay --regime 1 --steps 7 --format csv", None,
     "474729b408fe2f5d972e12d4ee3bf2fb2f0271c026f8ab98755f71459838dc67"),
    ("decay --arrow exc --kind decay --regime 1 --steps 7 --format json", None,
     "2c8402349d83a80af0749bcffcb7d9cf791eecb1fcdfc188c7a80f3adf111531"),
    ("decay --arrow exc --kind grow --regime 0 --steps 7 --format csv", None,
     "d2f3cec57d5c3af18c737f0e1e73b6dd0fff86daf738693b7d513b26cdf307e2"),
    ("decay --arrow exc --kind grow --regime 0 --steps 7 --format json", None,
     "44b4b4470a1d20b0ae3b01dde263995a15be8fe42d2c883640c4ddfa19edcbf9"),
    ("decay --arrow exc --kind grow --regime 1 --steps 7 --format csv", None,
     "d2f3cec57d5c3af18c737f0e1e73b6dd0fff86daf738693b7d513b26cdf307e2"),
    ("decay --arrow exc --kind grow --regime 1 --steps 7 --format json", None,
     "44b4b4470a1d20b0ae3b01dde263995a15be8fe42d2c883640c4ddfa19edcbf9"),
    ("decay --arrow prep --kind decay --regime 0 --steps 50001 --format csv", None,
     "bb71fc9c4d62cfce619b0ace09e36aa81be7848671b46634ad3a4df1bf1133c5"),
    ("decay --arrow prep --kind decay --regime 0 --steps 50001 --format json", None,
     "bf840864d1b46f2f0e8bdffc44c3cd1b19b5ff017d09562954722dc3d07d64d2"),
    ("decay --arrow prep --kind decay --regime 1 --steps 50001 --format csv", None,
     "75ac7e36d7488ed945d2de4384ffce30cb7e687200d611259a1fb9a8ab8eba72"),
    ("decay --arrow prep --kind decay --regime 1 --steps 50001 --format json", None,
     "7ef3a9f17ed72427ce7a34d6989022d0b708c5d84d40dc8eea1f3e0e5126bbce"),
    ("decay --arrow prep --kind grow --regime 0 --steps 50001 --format csv", None,
     "a32723726b72676bd6796e4e76f00cc7212f1c6f20c9352fbf2c687a2da4d7bc"),
    ("decay --arrow prep --kind grow --regime 0 --steps 50001 --format json", None,
     "fecece11df9130b21c96a786a9555eb66518ebc8b4908af3f29729987fbd1187"),
    ("decay --arrow prep --kind grow --regime 1 --steps 50001 --format csv", None,
     "d58813b9efaf14b9ba1657bf3ec4039e533171a274585745746cd60aaccfe293"),
    ("decay --arrow prep --kind grow --regime 1 --steps 50001 --format json", None,
     "73f5bd16f76511dfb07bc65c39bc6659d2f911d23f4e3a9edebfc503135cdad5"),
    ("decay --arrow exc --kind decay --regime 0 --steps 50001 --format csv", None,
     "bb71fc9c4d62cfce619b0ace09e36aa81be7848671b46634ad3a4df1bf1133c5"),
    ("decay --arrow exc --kind decay --regime 0 --steps 50001 --format json", None,
     "bf840864d1b46f2f0e8bdffc44c3cd1b19b5ff017d09562954722dc3d07d64d2"),
    ("decay --arrow exc --kind decay --regime 1 --steps 50001 --format csv", None,
     "bb71fc9c4d62cfce619b0ace09e36aa81be7848671b46634ad3a4df1bf1133c5"),
    ("decay --arrow exc --kind decay --regime 1 --steps 50001 --format json", None,
     "bf840864d1b46f2f0e8bdffc44c3cd1b19b5ff017d09562954722dc3d07d64d2"),
    ("decay --arrow exc --kind grow --regime 0 --steps 50001 --format csv", None,
     "d58813b9efaf14b9ba1657bf3ec4039e533171a274585745746cd60aaccfe293"),
    ("decay --arrow exc --kind grow --regime 0 --steps 50001 --format json", None,
     "73f5bd16f76511dfb07bc65c39bc6659d2f911d23f4e3a9edebfc503135cdad5"),
    ("decay --arrow exc --kind grow --regime 1 --steps 50001 --format csv", None,
     "d58813b9efaf14b9ba1657bf3ec4039e533171a274585745746cd60aaccfe293"),
    ("decay --arrow exc --kind grow --regime 1 --steps 50001 --format json", None,
     "73f5bd16f76511dfb07bc65c39bc6659d2f911d23f4e3a9edebfc503135cdad5"),
    ("evolve --arrow prep --kind decay --regime 0 --steps 7 --format csv", None,
     "1107c652f626f1da3247bcebb71dc98f8fedd63d16a56e35803e51fd0df97566"),
    ("evolve --arrow prep --kind decay --regime 0 --steps 7 --format json", None,
     "77036f43599807032d3bd47b0192e70c638130792834f5ebf5abfc87fbbd72c5"),
    ("evolve --arrow prep --kind decay --regime 1 --steps 7 --format csv", None,
     "db2931425548a08848bc82fbe475c672a3741f97214eba9583f7192ce80a95e8"),
    ("evolve --arrow prep --kind decay --regime 1 --steps 7 --format json", None,
     "23531902ce60116b24d2f367c3bfba431fb6898c99bb4fe539c305ebfa507ac9"),
    ("evolve --arrow prep --kind grow --regime 0 --steps 7 --format csv", None,
     "8572972893ad540ccafe531168d24869b98f95eccfd28a3ecc2196acb5d0d24b"),
    ("evolve --arrow prep --kind grow --regime 0 --steps 7 --format json", None,
     "d3ddcc51e524a45c1255ade02b6b26e367d6948cd707fee62d0a1bebfa693de8"),
    ("evolve --arrow prep --kind grow --regime 1 --steps 7 --format csv", None,
     "211be4fe20eca2ce06459c89857d7f89bb76f14b9f8ff952295378b552023cea"),
    ("evolve --arrow prep --kind grow --regime 1 --steps 7 --format json", None,
     "e20e3e66cb1e8fd1baf2bdc2298102947e795954d4ea5156f24fd96a0c20368a"),
    ("evolve --arrow exc --kind decay --regime 0 --steps 7 --format csv", None,
     "1107c652f626f1da3247bcebb71dc98f8fedd63d16a56e35803e51fd0df97566"),
    ("evolve --arrow exc --kind decay --regime 0 --steps 7 --format json", None,
     "77036f43599807032d3bd47b0192e70c638130792834f5ebf5abfc87fbbd72c5"),
    ("evolve --arrow exc --kind decay --regime 1 --steps 7 --format csv", None,
     "1107c652f626f1da3247bcebb71dc98f8fedd63d16a56e35803e51fd0df97566"),
    ("evolve --arrow exc --kind decay --regime 1 --steps 7 --format json", None,
     "77036f43599807032d3bd47b0192e70c638130792834f5ebf5abfc87fbbd72c5"),
    ("evolve --arrow exc --kind grow --regime 0 --steps 7 --format csv", None,
     "211be4fe20eca2ce06459c89857d7f89bb76f14b9f8ff952295378b552023cea"),
    ("evolve --arrow exc --kind grow --regime 0 --steps 7 --format json", None,
     "e20e3e66cb1e8fd1baf2bdc2298102947e795954d4ea5156f24fd96a0c20368a"),
    ("evolve --arrow exc --kind grow --regime 1 --steps 7 --format csv", None,
     "211be4fe20eca2ce06459c89857d7f89bb76f14b9f8ff952295378b552023cea"),
    ("evolve --arrow exc --kind grow --regime 1 --steps 7 --format json", None,
     "e20e3e66cb1e8fd1baf2bdc2298102947e795954d4ea5156f24fd96a0c20368a"),
    ("evolve --arrow prep --kind decay --regime 0 --steps 50001 --format csv", None,
     "f169528c5f23e92c39b96ab65d5e90f2acd0354ddc8e215bb4d67643f1a35741"),
    ("evolve --arrow prep --kind decay --regime 0 --steps 50001 --format json", None,
     "40eca24cad8908ed09a9dd0bb978a31ab32cdea231d3c0c0ab8f04c969411599"),
    ("evolve --arrow prep --kind decay --regime 1 --steps 50001 --format csv", None,
     "e58efe4c9021cc73a1ad84997d8a2e005d3f5c1ba43c34a386ae77817c85cb8f"),
    ("evolve --arrow prep --kind decay --regime 1 --steps 50001 --format json", None,
     "71ee9eb1c31c59ad0280042980ff70b382e72af635e5d6870b492207e7fdf7de"),
    ("evolve --arrow prep --kind grow --regime 0 --steps 50001 --format csv", None,
     "56dcf10babb2eade751bfc3a4735a70a28aeab17e5a7bd68db620b98c23f16c1"),
    ("evolve --arrow prep --kind grow --regime 0 --steps 50001 --format json", None,
     "cdce050a6bc59f537cc4b9093d13f0d0675c3a312948389d863014e6fea76ddb"),
    ("evolve --arrow prep --kind grow --regime 1 --steps 50001 --format csv", None,
     "e6bb9bada7bf69467d44ff6cb402e31e6b69168094c9d828f9e1e1058cded36a"),
    ("evolve --arrow prep --kind grow --regime 1 --steps 50001 --format json", None,
     "1bfcc057aea2eaffe73d4d54640392d7aa4b3f4781074573dadbf684d6c24eb2"),
    ("evolve --arrow exc --kind decay --regime 0 --steps 50001 --format csv", None,
     "f169528c5f23e92c39b96ab65d5e90f2acd0354ddc8e215bb4d67643f1a35741"),
    ("evolve --arrow exc --kind decay --regime 0 --steps 50001 --format json", None,
     "40eca24cad8908ed09a9dd0bb978a31ab32cdea231d3c0c0ab8f04c969411599"),
    ("evolve --arrow exc --kind decay --regime 1 --steps 50001 --format csv", None,
     "f169528c5f23e92c39b96ab65d5e90f2acd0354ddc8e215bb4d67643f1a35741"),
    ("evolve --arrow exc --kind decay --regime 1 --steps 50001 --format json", None,
     "40eca24cad8908ed09a9dd0bb978a31ab32cdea231d3c0c0ab8f04c969411599"),
    ("evolve --arrow exc --kind grow --regime 0 --steps 50001 --format csv", None,
     "e6bb9bada7bf69467d44ff6cb402e31e6b69168094c9d828f9e1e1058cded36a"),
    ("evolve --arrow exc --kind grow --regime 0 --steps 50001 --format json", None,
     "1bfcc057aea2eaffe73d4d54640392d7aa4b3f4781074573dadbf684d6c24eb2"),
    ("evolve --arrow exc --kind grow --regime 1 --steps 50001 --format csv", None,
     "e6bb9bada7bf69467d44ff6cb402e31e6b69168094c9d828f9e1e1058cded36a"),
    ("evolve --arrow exc --kind grow --regime 1 --steps 50001 --format json", None,
     "1bfcc057aea2eaffe73d4d54640392d7aa4b3f4781074573dadbf684d6c24eb2"),
    # lineshape on its default grid and at 50001 points
    ("lineshape", None,
     "97d0478ccf22515ce0cb90751f97b8715cec94fc05613dca257deffd6646547e"),
    ("lineshape --format json", None,
     "ad2c8a15ab63f16684255dc5b2b0b9285836cd139bae3e8ea246e0a3735c62bb"),
    ("lineshape --steps 50001", None,
     "609c259e8e0b3dcf71a146a6df2b33697c57e618ee7849f068be4fe690293ffb"),
    ("lineshape --steps 50001 --format json", None,
     "615014e8df4aa45ab1c5e48f1747e3339e3883dcd02fa3f21c424878531ce32e"),
    # the default grids of decay and evolve, and two short grids
    ("decay", None,
     "1ae728db3567a427ab77a85d2882ae59e2ac4dc4337e76ec42041ad8ef39a7a3"),
    ("evolve", None,
     "c46db8c31cfd0147fe0764c79dd1838e61eeb3a118515e33ab2c5c956952c617"),
    ("decay --steps 4", None,
     "7109d449e82956fe2dcb233e75d6f4f59145a233951eddd20af21f3535018ff0"),
    ("decay --format json", None,
     "eed06ec1aa06b355d379d7095e291a06e9ca0c74991cfc5a445e9266118daada"),
    # a growing state's default grid runs from -10 to 0
    ("decay --kind grow --steps 3", None,
     "3af3aa8736d6d71bf41eae9340d32c723827d7409850c6c145139ceb723a87e0"),
    # a regime-1 branch on a grid of its own
    ("evolve --regime 1 --kind grow --tmin -5 --tmax 0 --steps 6", None,
     "288b6167d292e7ae54a7870c7311fa0617b369e3576f79f93e57c622fff5487a"),
    # a negative number after a space is a value, read as after "="
    ("evolve --kind grow --tmax 0 --steps 3 --tmin -1e3", None,
     "2cbfe35e4e418c00606766943db4401f13dc0375795674d32127123e2e8f2903"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin=-1e3", None,
     "2cbfe35e4e418c00606766943db4401f13dc0375795674d32127123e2e8f2903"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin -1E+3", None,
     "2cbfe35e4e418c00606766943db4401f13dc0375795674d32127123e2e8f2903"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin=-1E+3", None,
     "2cbfe35e4e418c00606766943db4401f13dc0375795674d32127123e2e8f2903"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin -.5e1", None,
     "c7f8fb78a3ceaca8f607cb4f9493abe8494d16cd94a54db44a2baaedc8838836"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin=-.5e1", None,
     "c7f8fb78a3ceaca8f607cb4f9493abe8494d16cd94a54db44a2baaedc8838836"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin -1000", None,
     "2cbfe35e4e418c00606766943db4401f13dc0375795674d32127123e2e8f2903"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin=-1000", None,
     "2cbfe35e4e418c00606766943db4401f13dc0375795674d32127123e2e8f2903"),
    # a flag may be given by a unique prefix
    ("decay --ste 5", None,
     "290caa7c215bf00e609eeb59a489a06920146d4a3352458c22240de8b8252419"),
    ("decay --steps 5", None,
     "290caa7c215bf00e609eeb59a489a06920146d4a3352458c22240de8b8252419"),
    # Gamma * t overflows: exp(-inf + i E_R t), and the modulus underflows to 0.0 silently
    ("decay --gamma 1e300 --tmax 1e10 --steps 5", None,
     "db8751efe675c7cb9ea5e3940f8f526a1fadc0e013c1f2fbfef60a409a9f61a4"),
    ("decay --gamma 1e300 --tmax 1e10 --steps 3", None,
     "b1cccec5257d8555b1baef0dc0f816eaf890f28b6b9eea8a455050e105c7ffc8"),
    # lineshape in JSON on a grid of its own
    ("lineshape --steps 7 --format json", None,
     "350fdc26e71c5321ddcc0b9bec7dadb96356a7ebcbe7a90c0a2f1586b7d25d1d"),
    # a width too narrow for the default window, with one bound given inside it
    ("lineshape --gamma 1e-20 --emin 0 --steps 3", None,
     "74265c6e71f237bc84876711bcea74ec941760a2967064a9041861e85c4cbcac"),
    # a density that overflows is 0.0, with no warning
    ("lineshape --gamma 1e308 --emin 0 --emax 1 --steps 3", None,
     "d12309e6059278afd7136baa2a85f1122fd801520723e4c3b8ac41e54a1a1508"),
    ("lineshape --emin 0 --emax 1e300 --steps 3", None,
     "6b9105c878eef431582234d5e980701d25f4b1434d56c2629c65a26d176bbcba"),
    # (Gamma/2)^2 by pow(), as numpy's scalar ** 2: its middle row is 1.0,0.23074294032895304,
    # where (Gamma/2) * (Gamma/2) gives ...953
    ("lineshape --er 1.0 --gamma 2.759 --emin 0 --emax 2 --steps 3", None,
     "93913fa40e1fb2b69b3e27a27befe7302df62d3916e2e72a1a4d2d2f1316530b"),
    # (Gamma/2)^2 = inf: the density is 0.0
    ("lineshape --gamma 1e200 --steps 3", None,
     "7eba64d28f8182b20219caa6a26a82421d64353abe57d34c9f5e86952441de9a"),
    # a config file gives the bytes of the same values given as flags
    ("decay --config {cfg}", b"er = 2.0\ngamma = 0.5\ntmax = 4\nsteps = 5\n",
     "523c3992f306d2af4c1439a16f4a5de779c0e4f038ff0f7aa94deedc7ce398f1"),
    ("decay --er 2.0 --gamma 0.5 --tmax 4 --steps 5", None,
     "523c3992f306d2af4c1439a16f4a5de779c0e4f038ff0f7aa94deedc7ce398f1"),
    # a flag overrides the file; a file may start with a byte-order mark, as some editors save
    # UTF-8
    ("decay --config {cfg} --steps 3", b"steps=5\ntmax=4\n",
     "f7eeee6bfeb8976c687c218c5cf1e2e503e573710278e8fcab9bfdd2c4c9c675"),
    ("decay --config {cfg}", b"\xef\xbb\xbfsteps = 3\ntmax = 4\n",
     "f7eeee6bfeb8976c687c218c5cf1e2e503e573710278e8fcab9bfdd2c4c9c675"),
    ("decay --steps 3 --tmax 4", None,
     "f7eeee6bfeb8976c687c218c5cf1e2e503e573710278e8fcab9bfdd2c4c9c675"),
]


@pytest.mark.parametrize("argv, config, digest", ACCEPTED, ids=[row[0] for row in ACCEPTED])
def test_accepted_command_line(tmp_path, capsys, argv, config, digest):
    # exit 0, nothing on stderr and the row's bytes on stdout, then the same bytes to --out; a
    # warning fails the run too.  The rows at 50001 points and at 2j = 65535 skip --out: they
    # take most of the table's time, and --out writes any size through the same writelines.
    argv, _ = _command_line(tmp_path, argv, config)
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    printed = hashlib.sha256(out.encode()).hexdigest()
    assert printed == digest, f"{' '.join(argv)} now prints sha256 {printed}, starting:\n" + (
        "".join(out.splitlines(keepends=True)[:8]))
    if not {"50001", "65535"} & set(argv):
        target = tmp_path / "out.txt"
        assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()


class TestDecayCommand:
    def test_csv_matches_library(self, capsys):
        code, out, err = invoke(capsys, "decay", "--er", "1", "--gamma", "0.2",
                                "--tmin", "0", "--tmax", "10", "--steps", "11")
        assert code == 0 and not err
        table = ResultTable.from_csv(out)
        expected = run_decay(Scenario(ResonancePole(1.0, 0.2),
                                      Arrow.PREPARATION_REGISTRATION,
                                      Kind.DECAYING, 0, 0.0, 10.0, 11))
        assert table == expected
        assert table.rows[-1][1] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_json_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "decay", "--steps", "5", "--format", "json")
        assert code == 0
        table = ResultTable.from_json(out)
        assert table.columns == ("t", "survival", "factor_real", "factor_imag")
        assert ResultTable.from_json(table.to_json()) == table


class TestNegativeValueAfterSpace:
    GROW = ("evolve", "--kind", "grow", "--tmax", "0", "--steps", "3")

    def test_help_before_a_number_prints_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evolve", "--help", "-1e3"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gamowkit evolve [-h]")

    def test_console_arguments(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "gamowkit", *self.GROW, "--tmin", "-1e3"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == invoke(
            capsys, *self.GROW, "--tmin=-1e3")


class TestLineshapeCommand:
    def test_peak_present(self, capsys):
        code, out, _ = invoke(capsys, "lineshape", "--emin", "0.999", "--emax",
                              "1.001", "--steps", "3")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.columns == ("energy", "density")
        assert table.rows[1][1] == pytest.approx(2.0 / (math.pi * 0.2), abs=1e-12)


class TestTableCommand:
    def test_json_matches_derivation(self, capsys):
        code, out, _ = invoke(capsys, "table", "--arrow", "exc")
        assert code == 0
        assert json.loads(out) == derive_table(Arrow.EXCITATION_DEEXCITATION).to_dict()


class TestCrossIdCommand:
    def test_branch_choices_are_the_identified_branches(self, capsys):
        with pytest.raises(SystemExit):
            main(["cross-id", "--help"])
        assert "--branch {5a,5b}" in capsys.readouterr().out


class TestOutputAndConfig:
    def test_config_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "# decay scenario\n"
            "er = 2.0\n"
            "gamma = 0.5\n"
            "kind = decay\n"
            "tmin = 0\n"
            "tmax = 4\n"
            "steps = 5\n")
        code, out, _ = invoke(capsys, "decay", "--config", str(config))
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.rows[-1][0] == 4.0
        assert table.rows[-1][1] == pytest.approx(math.exp(-0.5 * 4.0), abs=1e-12)

    @pytest.mark.parametrize("key", ["volume", "command", "config", "handler"])
    def test_unknown_config_key_rejected_before_the_command_runs(
            self, tmp_path, capsys, monkeypatch, key):
        import gamowkit.cli as cli_module

        def never(_):
            pytest.fail("the command ran despite an unknown config key")

        monkeypatch.setattr(cli_module, "_cmd_time_table", never)
        config = tmp_path / "bad.cfg"
        config.write_text(f"steps=plenty\n{key}=11\n")  # the unknown key is reported first
        assert invoke(capsys, "decay", "--config", str(config)) == (
            2, "", f"error: unknown config keys: {key}\n")

    @pytest.mark.parametrize("command, steps",
                             [("decay", 101), ("evolve", 101), ("lineshape", 201)])
    def test_default_steps_shown_in_help(self, capsys, command, steps):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"grid points (default {steps})" in " ".join(capsys.readouterr().out.split())


class TestStreamedOutput:
    # The CLI computes its grid from Python floats, the library from numpy arrays: the
    # bytes must agree on every branch, at block boundaries, on one-point spans and on
    # subnormal ones.
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(energy=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
           arrow=st.sampled_from(sorted(ARROWS)), kind=st.sampled_from(sorted(KINDS)),
           regime=st.sampled_from([0, 1]),
           steps=st.one_of(st.sampled_from([2, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                            2 * _BLOCK_ROWS, 3 * _BLOCK_ROWS + 7]),
                           st.integers(2, 3 * _BLOCK_ROWS + 7)),
           bounds=st.lists(st.one_of(st.floats(0.0, 1e3), st.floats(0.0, 1e-300),
                                     st.integers(0, 40).map(lambda k: k * 5e-324)),
                           min_size=1, max_size=2).map(sorted))
    @example(energy=0.0, width=1.0, arrow="exc", kind="grow", regime=0, steps=7,
             bounds=[0.0, 2e-323])  # np.linspace(-2e-323, -0.0, 7) holds 5e-324
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["decay", "evolve", "lineshape"])
    def test_stdout_and_out_file_agree(self, tmp_path, capsys, command, fmt, energy, width,
                                       arrow, kind, regime, steps, bounds):
        pole = ResonancePole(energy, width)
        low, high = bounds[0], bounds[-1]  # one bound drawn: a one-point span
        if command == "lineshape":
            high = max(high, math.nextafter(low, math.inf))  # an energy grid spans two values
            grid = ("--emin", repr(low), "--emax", repr(high))
            table = lineshape(pole, np.linspace(low, high, steps))
        else:
            if canonical_time_domain(KINDS[kind], regime).half is TimeHalf.NONPOS:
                low, high = -high, -low
            scenario = Scenario(pole, ARROWS[arrow], KINDS[kind], regime, low, high, steps)
            grid = ("--arrow", arrow, "--kind", kind, "--regime", str(regime),
                    f"--tmin={low!r}", f"--tmax={high!r}")
        argv = (command, "--er", repr(energy), "--gamma", repr(width), *grid,
                "--steps", str(steps), "--format", fmt)
        if command != "lineshape":
            try:
                table = (run_decay if command == "decay" else evolution_table)(scenario)
            except DomainViolationError as exc:  # a subnormal step overshoots t_max = -0.0
                assert invoke(capsys, *argv) == (2, "", f"error: {exc}\n")
                return
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and not err
        assert out == (table.to_csv() if fmt == "csv" else table.to_json() + "\n")
        target = tmp_path / f"{command}.{fmt}"
        assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()


# Runs `gamowkit` in a fresh interpreter and reports the process's own peak
# resident set (VmHWM, KiB).  A child's ru_maxrss would not do: a fork of a
# large process counts the parent's pages.
_PEAK_RSS_CHILD = """
import sys
from gamowkit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:")).split()[1]
print(code, peak, file=sys.stderr)
"""


def _peak_rss_kib(*argv) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamowkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
    *err, code, peak = proc.stderr.split()
    assert (err, code) == ([], "0"), proc.stderr
    return int(peak)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_output_memory_does_not_grow_with_steps(fmt):
    small = _peak_rss_kib("decay", "--steps", "2", "--format", fmt)
    large = _peak_rss_kib("decay", "--steps", "200001", "--format", fmt)
    # the grid's arrays take about 12 MiB at 200001 points; whole-text output took over 70
    assert (large - small) / 1024 < 32


# The memory gates, at the bounds: the largest grid and the spin cap, each in a fresh interpreter.
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_largest_grid_streams_in_under_64_mib(tmp_path):
    target = tmp_path / "big.csv"
    peak = _peak_rss_kib("decay", "--steps", str(MAX_GRID_STEPS), "--format", "csv",
                         "--out", str(target))
    assert peak < 64 * 1024
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == MAX_GRID_STEPS + 1


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_spin_cap_checks_in_under_96_mib(tmp_path):
    assert MAX_TWICE_J == 65535
    target = tmp_path / "cap.json"
    peak = _peak_rss_kib("rep-check", "--row", "4", "--twice-j", str(MAX_TWICE_J),
                         "--out", str(target))
    assert peak < 96 * 1024
    assert json.loads(target.read_text(encoding="utf-8"))["all_passed"] is True


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_grid_holds_one_block_beyond_its_times(tmp_path, fmt):
    target = str(tmp_path / "decay.out")
    assert main(["decay", "--steps", "2", "--format", fmt, "--out", target]) == 0  # one-time setup
    peaks = {}
    tracemalloc.start()
    try:
        for steps in (20001, 200001):
            gc.collect()  # the peak then counts this run's allocations, not a cycle left over
            tracemalloc.reset_peak()
            assert main(["decay", "--steps", str(steps), "--format", fmt, "--out", target]) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The grid is never held: one block of rows and its text is, so the peak does not grow
    # with the step count.  The 200001 grid times alone, as Python floats, would take 6.4 MB.
    # Measured (Python 3.11): 214 KiB for CSV, whose header writer takes about 128 KiB, and
    # 121 KiB for JSON, with 200001 points at most 3 KiB above 20001.
    assert peaks[200001] < 320 * 1024
    assert peaks[200001] - peaks[20001] <= 16 * 1024


class TestExitCodes:
    def test_internal_error_returns_one(self, capsys, monkeypatch):
        import gamowkit.cli as cli_module

        def boom(_):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_module, "_cmd_time_table", boom)
        code, _, err = invoke(capsys, "decay")
        assert code == 1 and "internal error" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gamowkit", "decay", "--steps", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "t,survival,factor_real,factor_imag"

    def test_closed_stdout_pipe_exits_141_without_an_error_line(self):
        # as `gamowkit decay --steps 200000 | head -c 10`: the rows overflow the pipe's buffer
        with subprocess.Popen([sys.executable, "-m", "gamowkit", "decay", "--steps", "200000"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b"t,survival"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (141, b"")


COMMANDS = tuple(_commands())
FLAGS = sorted({option[0] for _, _, options in _commands().values() for option in options})
# Values of every kind a flag meets: valid ints, floats and choices, bad ones, and ones that
# look like flags.  No "nan": the reader and argparse give equal namespaces but nan != nan.
VALUES = ["0", "1", "3", "4", "5", "11", "0.5", "1e3", " 7", "1_0", "inf", "1e400", "-1", "-1000",
          "-1e3", "-.5", "-inf", "x", "1.5x", "", "-", "--", "-h", "--help", "--steps", "prep",
          "exc", "grow", "decay", "json", "csv", "text", "5a", "5b", "4a", "a=b", "out.csv"]
# Values each flag takes, by its choices, else its type.
BY_TYPE = {int: ["0", "3", "11", "-2"], float: ["0.5", "1e3", "-1.5", "inf"], None: ["a.txt"]}
GOOD = {flag: [str(c) for c in choices] if choices else BY_TYPE[type]
        for _, _, options in _commands().values() for flag, _, _, type, choices in options}


@st.composite
def command_lines(draw):
    """A command (now and then none), then mostly exact flags with good values, and tokens
    of every other shape: abbreviated, unknown and other commands' flags, flags repeated or
    alone, bad values, and stray values."""
    command = draw(st.sampled_from(COMMANDS * 4 + ("warp", "--help", "-h", "")))
    own = [option[0] for option in _commands()[command][2]] if command in COMMANDS else FLAGS
    good = st.sampled_from(own).flatmap(lambda f: st.sampled_from(GOOD[f]).flatmap(
        lambda v: st.sampled_from([[f, v], [f"{f}={v}"]])))
    flag = st.one_of(st.sampled_from(own), st.sampled_from(FLAGS),
                     st.sampled_from(own).flatmap(
                         lambda f: st.integers(3, len(f) - 1).map(lambda n: f[:n])),
                     st.sampled_from(["--nope", "--twice_j", "-s", "-h", "--help", "--", "x"]))
    other = st.tuples(flag, st.sampled_from(VALUES)).flatmap(lambda fv: st.sampled_from(
        [[fv[0], fv[1]], [f"{fv[0]}={fv[1]}"], [fv[0]], [fv[1]]]))
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        argv += draw(st.one_of(good, good, good, good, other))
    return argv


def _reference():
    """argparse's parser of the command table, each option with its type and default: it read
    every command line before the reader did."""
    import argparse
    parser = argparse.ArgumentParser(prog="gamowkit", description=build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, handler, options) in _commands().items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag, text, default, type, choices in options:
            p.add_argument(flag, type=type, choices=choices, default=default,
                           help=text if default is None else f"{text} (default {default})")
    return parser


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _joined(argv):
    """``argv`` with a number that starts with "-" after a command's flag joined to it: the
    reader reads ``--tmin -1e3`` as ``--tmin=-1e3``, where argparse reads only ``-1000`` and
    ``-.5`` as numbers."""
    if not argv or argv[0] not in COMMANDS:
        return argv
    joined = argv[:1]
    for token in argv[1:]:
        flag = joined[-1]
        if (token.startswith("-") and _is_float(token) and flag.startswith("--")
                and not {"=", " "} & set(flag) and flag != "--" and not "--help".startswith(flag)):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def _by_version(argv):
    """Whether argparse reads ``argv`` by Python version, where the reader reads it one way:
    ``--flag=--`` is an empty list before 3.13, and 3.13.0 prints help for ``-hx``, which 3.10
    to 3.12.1 reject; the reader rejects both (``REJECTED`` rows)."""
    return any(t.startswith("--") and t.partition("=")[1:] == ("=", "--")
               or t.startswith("-h") and t[2:].lstrip("h") for t in argv)


def _outcome(read, argv):
    """What ``read(argv)`` does: ("ok", each option's type and value), ("help", its text) or
    ("error",).  Every config file reads as empty, so options not given hold their defaults."""
    out = io.StringIO()
    with mock.patch.object(cli, "_parse_config", lambda path: {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "ok", {name: (type(v), v) for name, v in vars(read(argv)).items()}
        except SystemExit as exc:
            return ("help", out.getvalue()) if exc.code == 0 else ("error",)
        except ValueError:
            return ("error",)


class TestDirectReader:
    """The reader reads every command line as argparse did: where argparse accepts a line, the
    reader gives the same namespace, where argparse prints a help, the reader prints the same
    text, and where argparse exits 2, the reader raises a ValueError; and the reverse.  The
    exceptions are stated once: a number after a flag (``_joined``) and the lines that argparse
    reads by version (``_by_version``).  Before the command the reader also takes a number such
    as ``-1e3`` for a (bad) command, where argparse skips it as an unknown flag; the lines drawn
    here put a command, a help flag or a bad command first."""

    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    @example(argv=["decay", "--ste", "5"])
    @example(argv=["decay", "--out", "-"])
    @example(argv=["decay", "--steps"])
    @example(argv=["table", "--format=json", "--format", "text", "--arrow", "exc"])
    @example(argv=["rep-check", "--row", "5", "--twice-j", "0"])
    @example(argv=["evolve", "--kind", "grow", "--tmin", "-1e3", "--tmax", "0", "--steps", "3"])
    @example(argv=["decay", "--bogus", "1", "--help"])
    @example(argv=["decay", "--help", "--t", "5"])
    @example(argv=["decay", "--out", "-a b", "-hh"])
    @example(argv=["--bogus", "-h", "decay"])
    def test_reads_what_argparse_reads(self, argv):
        if not _by_version(argv):
            assert _outcome(_read, argv) == _outcome(_reference().parse_args, _joined(argv))

    @pytest.mark.parametrize("argv", [
        ("decay", "--steps", "11", "--steps=3"),
        ("evolve", "--kind", "grow", "--tmin=-1", "--tmax", "0", "--format", "json"),
        ("lineshape", "--er", "2", "--gamma", "0.5", "--emin", "0", "--out", "shape.csv"),
        ("table", "--arrow", "exc", "--format", "text"),
        ("cross-id", "--branch", "5b", "--config", "cli.cfg"),
        ("rep-check", "--row", "4", "--twice-j", "127", "--gamma", "1e-3"),
    ])
    def test_well_formed_lines_are_read(self, argv):
        read = _outcome(_read, list(argv))
        assert read[0] == "ok" and read == _outcome(_reference().parse_args, list(argv))
