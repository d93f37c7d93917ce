"""repro — a reproduction of "Elan: Towards Generic and Efficient Elastic
Training for Deep Learning" (ICDCS 2020).

The package is organized bottom-up:

* :mod:`repro.simcore` — discrete-event simulation kernel;
* :mod:`repro.topology` — device/link model (L1-L4, P2P/SHM/NET);
* :mod:`repro.perfmodel` — calibrated throughput/bandwidth/convergence models;
* :mod:`repro.training` — numpy training substrate;
* :mod:`repro.replication` — concurrent IO-free replication (§IV);
* :mod:`repro.coordination` — AM, protocol, the hooks whose default
  bundle is the Table II state, DES twin (§II, §V);
* :mod:`repro.net` — the live stack: networked AM + worker agents;
* :mod:`repro.core` — hybrid scaling, progressive LR, AdaBatch, the
  Table III API facade, the §VI-B experiment;
* :mod:`repro.baselines` — Shutdown-Restart and Litz;
* :mod:`repro.scheduling` — elastic cluster scheduling (§VI-C).

Quick start::

    from repro.core import ElasticJob

    with ElasticJob(workers=2, iterations=200) as job:
        job.wait_until_iteration(50)
        job.scale_out(2)          # training continues while workers start
        job.wait_for_adjustments(1)
"""

__version__ = "1.0.0"

__all__ = [
    "baselines",
    "coordination",
    "core",
    "perfmodel",
    "replication",
    "scheduling",
    "simcore",
    "topology",
    "training",
]
