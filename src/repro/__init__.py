"""repro: model-driven job/task composition for cluster computing.

A production-quality reproduction of Mehta, Kanitkar, Laufer &
Thiruvathukal, "A Model-Driven Approach to Job/Task Composition in
Cluster Computing" (IPDPS 2007): UML activity diagrams modeling CN jobs,
XMI interchange, XSLT-driven transformation to CNX client descriptors
and executable client programs, and a simulated Computational
Neighborhood cluster runtime to execute them.

Sub-packages:

* :mod:`repro.core` -- the paper's contribution: UML metamodel, XMI
  reader/writer, CNX language, XMI2CNX / CNX2Py / CNX2Java transforms,
  and the six-step pipeline (paper Fig. 6).
* :mod:`repro.cn` -- the Computational Neighborhood runtime: CNServer
  servants, JobManager/TaskManager, multicast discovery, message queues,
  task archives, tuple spaces, CN API, web-portal prototype.
* :mod:`repro.xslt` -- a from-scratch XSLT 1.0 / XPath 1.0 subset engine
  that runs the XMI2CNX stylesheet.
* :mod:`repro.apps` -- workloads: the guiding transitive-closure example
  plus Monte Carlo pi and tuple-space word count.

Quickstart::

    from repro.apps.floyd import run_parallel_floyd, random_weighted_graph

    matrix = random_weighted_graph(32, seed=1)
    result, artifacts = run_parallel_floyd(matrix, n_workers=4)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
