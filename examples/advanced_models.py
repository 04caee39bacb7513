#!/usr/bin/env python
"""Extension models: training cost, SNN timing, inner pipelining,
sensitivity analysis, and Monte-Carlo accuracy.

The paper's conclusion lists on-chip training and inner-layer pipeline
structures as future work; this example exercises the extension models
implementing them, plus the analysis tooling layered on the accuracy
model.

Run:  python examples/advanced_models.py
"""


from repro import Accelerator, SimConfig, mlp
from repro.accuracy.interconnect import analog_error_rate
from repro.accuracy.montecarlo import bound_check, run_monte_carlo
from repro.accuracy.sensitivity import sensitivity_sweep
from repro.arch.breakdown import accelerator_breakdown
from repro.arch.pipeline import bank_inner_pipeline
from repro.arch.training import TrainingCostModel
from repro.nn.snn import SnnTimingModel
from repro.report import format_table
from repro.tech import get_memristor_model
from repro.units import MJ, NS, UJ, US, fmt_si


def main() -> None:
    config = SimConfig(
        crossbar_size=128, cmos_tech=45, interconnect_tech=45,
        weight_bits=8, signal_bits=8, parallelism_degree=16,
    )

    # --- on-chip training (future work, Sec. VIII) ----------------------
    accelerator = Accelerator(config, mlp([784, 256, 10], name="mnist"))
    trainer = TrainingCostModel(accelerator, update_sparsity=0.1)
    cost = trainer.evaluate(samples_per_epoch=60_000, batch_size=64)
    print("=== on-chip training cost (MNIST-sized MLP) ===")
    print(f"energy / update:   {fmt_si(cost.energy_per_update, 'J')}")
    print(f"energy / epoch:    {cost.energy_per_epoch / MJ:.3f} mJ")
    print(f"latency / epoch:   {cost.latency_per_epoch:.4f} s")
    print(f"endurance horizon: {cost.endurance_epochs:,.0f} epochs "
          f"(supports 100 epochs: {cost.supports_run(100)})")
    print(f"weight-load share after 1M inferences: "
          f"{trainer.inference_amortisation(1_000_000):.4%}")

    # --- SNN rate-coding trade-off --------------------------------------
    snn = Accelerator(
        config,
        mlp([784, 256, 10], name="snn", activation="if",
            network_type="SNN"),
    )
    timing = SnnTimingModel(snn)
    print()
    print("=== SNN rate-coding trade-off ===")
    rows = [
        [p.timesteps, f"{p.effective_bits:.0f}",
         f"{p.rate_coding_error:.3%}",
         f"{p.energy_per_sample / UJ:.3f}",
         f"{p.latency_per_sample / US:.2f}"]
        for p in timing.sweep(windows=(16, 64, 256))
    ]
    print(format_table(
        ["window T", "eff. bits", "coding err", "energy uJ", "latency us"],
        rows,
    ))

    # --- inner-layer pipeline (ISAAC-style future work) ------------------
    pipe = bank_inner_pipeline(accelerator.banks[0])
    print()
    print("=== inner pipeline of bank[0] ===")
    print(format_table(
        ["stage", "latency ns"],
        [[s.name, f"{s.latency / NS:.2f}"] for s in pipe.stages],
    ))
    print(f"cycle: {pipe.cycle_time / NS:.2f} ns; streaming 10k tokens is "
          f"{pipe.speedup_over_sequential(10_000):.2f}x faster than "
          f"start-to-finish")

    # --- sensitivity analysis -------------------------------------------
    device = get_memristor_model("RRAM")
    print()
    print("=== error-rate sensitivities across the U-curve ===")
    for report in sensitivity_sweep(device, (8, 64, 256), 0.25):
        pretty = ", ".join(
            f"{k}={v:+.2f}" for k, v in report.sensitivities.items()
        )
        print(f"size {report.size:4d}: eps={report.epsilon:+.4f} "
              f"dominant={report.dominant()} ({pretty})")

    # --- Monte-Carlo accuracy vs the closed-form bound -------------------
    result = run_monte_carlo(device, size=32, segment_resistance=0.25,
                             seed=7, trials=8)
    bound = abs(analog_error_rate(32, 32, 0.25, device))
    print()
    print("=== Monte-Carlo accuracy (32x32, 45 nm wire) ===")
    print(f"mean |error| = {result.mean_abs_error:.4%}, "
          f"p99 = {result.percentile(99):.4%}, "
          f"max = {result.max_abs_error:.4%}")
    print(f"closed-form worst case = {bound:.4%}; "
          f"bound holds: {bound_check(result, bound, slack=2.0)}")

    # --- reliability: retention, disturb, refresh ------------------------
    from repro.arch.reliability import reliability_report

    life = reliability_report(accelerator, samples_per_second=1e6)
    print()
    print("=== reliability at 1M samples/s ===")
    print(f"refresh interval: {life.refresh_interval / 86400:.1f} days "
          f"({'retention' if life.retention_limited else 'disturb'}-limited)")
    print(f"refresh energy:   {life.refresh_energy_per_year:.4f} J/year, "
          f"duty cycle {life.refresh_duty_cycle:.2e}")
    print(f"endurance horizon:{life.endurance_lifetime_years:,.0f} years")

    # --- breakdown -------------------------------------------------------
    print()
    print("=== per-category breakdown ===")
    print(accelerator_breakdown(accelerator).render())


if __name__ == "__main__":
    main()
