"""Train the full method on the desk benchmark and evaluate it.

Runs the episodic loop end to end (calibrated loss, semantic alignment,
prototype contrast, cycle constraint, implicit augmentation, meta-split),
then scores the model under the open-class protocol and prints the
per-domain breakdown.
"""

from tailshift import data as D
from tailshift import meta as MT
from tailshift.cli import score
from tailshift.config import load_run_config

cfg, _ = load_run_config("desk")
ds = D.generate(cfg.data)

print(f"training: {cfg.train.total_steps} steps, "
      f"batch {cfg.train.batch_size} per domain, meta split {ds.n_train_domains - 1}+1")
res = MT.run(ds, cfg.train, cfg.model)

for rep in res.reports[:: max(1, len(res.reports) // 6)]:
    ls = rep.losses
    print(f"  step {rep.step:4d}  L_mtr {ls['L_mtr']:7.3f}  L_Cls {ls['L_Cls']:6.3f}"
          f"  L_S2S {ls['L_S2S']:7.3f}  L_Aug {ls['L_Aug']:6.3f}"
          f"  L_mte {ls['L_mte']:7.3f}")

report = score(res.params, cfg.model, ds, cfg.eval)
print(f"\nheld-out domain {ds.heldout_domains[0]} (threshold {report.threshold}):")
print(f"  Acc-U {report.acc_u:.1f}   Acc {report.acc:.1f}   H {report.h:.1f}"
      f"{'  (no open classes: H falls back to Acc)' if report.h_fallback else ''}")
print("  per-domain accuracy:",
      {k: round(v, 1) for k, v in sorted(report.per_domain.items())})
