"""Speculative-execution threat model: engine mode, hardening, gallery.

Two groups of tests:

* **tier-1** (unmarked): ``SpeculationConfig``/``EngineConfig`` plumbing,
  predictor units, the fence/mask rewriter output shape, verifier
  soundness of the masked-guard tolerance, and the speculation
  transparency oracle on a small program;
* **gallery** (``@pytest.mark.speculation``, excluded from tier-1): the
  full Spectre leakage matrix — both attacks leak and recover the secret
  byte at every unhardened level, leak exactly zero under each hardened
  level, and behave deterministically under a fixed predictor seed.
  ``REPRO_SPEC_SEED`` sweeps the predictor seed (nightly CI matrix).
"""

import json
import os
import random
from pathlib import Path

import pytest

from repro.core import (
    O0,
    O1,
    O2,
    O2_FENCE,
    O2_MASK,
    RewriteError,
    VerifierPolicy,
    rewrite_program,
    verify_elf,
)
from repro.arm64 import parse_assembly
from repro.emulator import PatternHistoryTable, ReturnStack
from repro.engine import EngineConfig, SpeculationConfig
from repro.errors import ConfigError
from repro.fuzz.differential import (
    assemble_to_elf,
    check_speculation,
    rewrite_to_elf,
    slot_machine,
)
from repro.workloads.spectre import (
    ATTACKS,
    DEFAULT_SECRETS,
    attack_source,
    measure_attack,
)

#: Predictor seed for the gallery tests; swept by the nightly CI matrix.
SPEC_SEED = int(os.environ.get("REPRO_SPEC_SEED", "0"))

UNHARDENED = [("O0", O0), ("O1", O1), ("O2", O2)]
HARDENED = [("O2-fence", O2_FENCE), ("O2-mask", O2_MASK)]

#: A small program exercising conditionals, calls, returns, and memory —
#: every predictor surface — used by the transparency tests.
LOOP_SOURCE = """\
.text
_start:
    adrp x10, buf
    add  x10, x10, :lo12:buf
    movz w0, #0
    movz w1, #0
loop:
    bl   bump
    add  x2, x10, w1, uxtw
    strb w0, [x2]
    add  w1, w1, #1
    cmp  w1, #40
    b.ne loop
    brk  #0
bump:
    add  w0, w0, #3
    ret
.data
buf:
    .skip 64
"""


# -- config plumbing (tier-1) -------------------------------------------------


def test_speculation_config_defaults_and_validation():
    spec = SpeculationConfig()
    assert (spec.window, spec.seed) == (24, 0)
    with pytest.raises(ConfigError):
        SpeculationConfig(window=0)
    with pytest.raises(ConfigError):
        SpeculationConfig(seed=-1)
    with pytest.raises(ConfigError):
        EngineConfig(speculation=3)


def test_tenant_policy_gateway_and_cluster_accept_speculation(monkeypatch):
    import multiprocessing

    from repro.cluster import Cluster
    from repro.serve import Gateway, TenantPolicy

    engine = EngineConfig(kind="stepping",
                          speculation=SpeculationConfig(seed=7))
    gateway = Gateway({"t": TenantPolicy()}, lanes=2, engine=engine)
    assert gateway.engine_config is engine
    for lane in gateway.lanes.values():
        machine = lane.runtime.machine
        assert machine.engine == "stepping"
        assert machine.speculation_log is not None

    # Fork-started workers inherit the frozen config the cluster holds.
    monkeypatch.setattr(multiprocessing.get_context("fork").Process,
                        "start", lambda process: None)
    assert Cluster(workers=1, engine=engine)._config["engine"] is engine


def test_speculation_rejects_step_probes_and_forced_stepping():
    elf = rewrite_to_elf(LOOP_SOURCE, O2)
    engine = EngineConfig(kind="stepping", speculation=SpeculationConfig())

    machine = slot_machine(elf, engine=engine)
    machine.add_step_probe(lambda *args: None)
    with pytest.raises(ConfigError):
        machine.run(fuel=10)

    machine = slot_machine(elf, engine=engine)
    machine.force_stepping = True
    with pytest.raises(ConfigError):
        machine.run(fuel=10)


# -- predictor units (tier-1) -------------------------------------------------


def test_pht_saturates_and_is_seed_deterministic():
    pht = PatternHistoryTable(16, random.Random(1))
    assert pht.counters == PatternHistoryTable(16, random.Random(1)).counters
    pc = 0x1000
    for _ in range(8):
        pht.update(pc, True)
    assert pht.predict(pc)
    assert pht.counters[(pc >> 2) & 15] == 3  # saturated, not overflowed
    for _ in range(8):
        pht.update(pc, False)
    assert not pht.predict(pc)
    assert pht.counters[(pc >> 2) & 15] == 0


def test_rsb_wraps_and_underflows_to_unmapped_addresses():
    rsb = ReturnStack(4, random.Random(2))
    # Seeded stale entries sit in the never-mapped first page, aligned.
    assert all(0x40 <= e < 0x1000 and e % 4 == 0 for e in rsb.entries)
    for address in (0x100, 0x200, 0x300):
        rsb.push(address)
    assert rsb.pop() == 0x300
    assert rsb.pop() == 0x200
    # Six more pops underflow past the fill level and wrap — every value
    # is still a seeded (or stale) entry, never garbage.
    for _ in range(6):
        assert 0 < rsb.pop() < 0x1000 or rsb.pop() in (0x100, 0x200, 0x300)


# -- hardened rewriter output (tier-1) ----------------------------------------


def _rewritten_mnemonics(source, options):
    result = rewrite_program(parse_assembly(source), options)
    from repro.arm64.instructions import Instruction

    return result, [item.mnemonic for item in result.program.items
                    if isinstance(item, Instruction)]


def test_fence_rewrite_places_barriers_on_mispredictable_edges():
    result, mnemonics = _rewritten_mnemonics(LOOP_SOURCE, O2_FENCE)
    # One dsb after b.ne, one after bl, one per .text label (loop, bump).
    assert mnemonics.count("dsb") >= 4
    after = {mnemonics[i + 1] for i, m in enumerate(mnemonics)
             if m in ("b.ne", "bl")}
    assert after == {"dsb"}
    assert result.stats.fence_guards >= 4
    assert result.stats.demoted_returns == 0
    assert "ret" in mnemonics  # fencing keeps returns (and the RSB) alive
    assert O2_FENCE.label == "O2, fence"
    assert O2_FENCE.zero_instruction_guards and O2_FENCE.hoisting


def test_mask_rewrite_poisons_and_demotes_returns():
    result, mnemonics = _rewritten_mnemonics(LOOP_SOURCE, O2_MASK)
    after_cond = {mnemonics[i + 1] for i, m in enumerate(mnemonics)
                  if m.startswith("b.")}
    assert after_cond == {"csinv"}
    assert "bic" in mnemonics            # masked guard index clearing
    assert "ret" not in mnemonics        # demoted: the RSB never engages
    assert result.stats.demoted_returns == 1
    assert result.stats.mask_guards > 0
    assert O2_MASK.label == "O2, mask"
    assert not O2_MASK.zero_instruction_guards and not O2_MASK.hoisting


def test_mask_reserves_the_poison_register():
    source = ".text\n_start:\n    movz x25, #1\n    brk #0\n"
    rewrite_program(parse_assembly(source), O2)  # fine unhardened
    with pytest.raises(RewriteError):
        rewrite_program(parse_assembly(source), O2_MASK)


def test_hardened_rewrites_verify_clean():
    for _label, options in HARDENED:
        elf = rewrite_to_elf(LOOP_SOURCE, options)
        result = verify_elf(elf, VerifierPolicy())
        assert result.ok, result.violations[:3]


def test_verifier_rejects_unguarded_masked_index():
    # bic w18, w0, w25 is tolerated *only* immediately before the guard
    # add; anything else writing the scratch register stays a violation.
    source = (".text\n_start:\n"
              "    bic w18, w0, w25\n"
              "    movz x0, #1\n"
              "    brk #0\n")
    result = verify_elf(assemble_to_elf(source), VerifierPolicy())
    assert not result.ok
    assert any("x18" in str(v) for v in result.violations)


# -- transparency oracle (tier-1) ---------------------------------------------


def test_check_speculation_clean_on_loop_program():
    for options in (O2, O2_FENCE, O2_MASK):
        elf = rewrite_to_elf(LOOP_SOURCE, options)
        assert check_speculation(elf, seed=SPEC_SEED) == []


def test_speculative_run_leaves_a_log():
    elf = rewrite_to_elf(LOOP_SOURCE, O2)
    machine = slot_machine(elf, engine=EngineConfig(
        kind="stepping", speculation=SpeculationConfig(seed=SPEC_SEED)))
    from repro.emulator import BrkTrap

    with pytest.raises(BrkTrap):
        machine.run(fuel=100_000)
    log = machine.speculation_log
    assert log is not None
    assert log.windows and log.squashes
    # The plain machine carries no log at all.
    assert slot_machine(elf).speculation_log is None


# -- the Spectre gallery (speculation marker) ---------------------------------


@pytest.mark.speculation
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attacks_leak_and_recover_the_secret_unhardened(attack):
    spec = SpeculationConfig(seed=SPEC_SEED)
    for label, options in UNHARDENED:
        result = measure_attack(attack, options=options, speculation=spec)
        assert result.leakage > 0, f"{attack} at {label}: no leakage"
        assert result.recovered == DEFAULT_SECRETS, \
            f"{attack} at {label}: recovered {result.recovered}"


@pytest.mark.speculation
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_hardened_levels_leak_exactly_zero(attack):
    spec = SpeculationConfig(seed=SPEC_SEED)
    for label, options in HARDENED:
        result = measure_attack(attack, options=options, speculation=spec)
        assert result.leakage == 0, \
            f"{attack} at {label}: leakage {result.leakage}"
        # Whatever footprint remains must be secret-independent.
        assert result.recovered[0] == result.recovered[1]
        assert result.logs[0].access_trace() == result.logs[1].access_trace()


@pytest.mark.speculation
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_gallery_is_deterministic_under_a_fixed_seed(attack):
    spec = SpeculationConfig(seed=SPEC_SEED)
    first = measure_attack(attack, options=O2, speculation=spec)
    second = measure_attack(attack, options=O2, speculation=spec)
    assert first.leakage == second.leakage
    for log_a, log_b in zip(first.logs, second.logs):
        assert log_a.access_trace() == log_b.access_trace()
        assert log_a.windows == log_b.windows
        assert log_a.squashes == log_b.squashes


@pytest.mark.speculation
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_corpus_pins_the_gallery_sources(attack):
    path = Path(__file__).parent / "corpus" / f"spectre-{attack}.json"
    entry = json.loads(path.read_text())
    assert entry["kind"] == "program" and entry["expect"] == "pass"
    assert entry["source"] == attack_source(attack, 42)


@pytest.mark.speculation
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attack_programs_pass_the_transparency_oracle(attack):
    elf = rewrite_to_elf(attack_source(attack, 42), O2)
    assert check_speculation(elf, seed=SPEC_SEED) == []
