"""repro: a reproduction of TrioSim (ISCA 2025).

TrioSim is a lightweight, trace-driven simulator for large-scale DNN
training on multi-GPU systems.  From a *single-GPU* operator trace it
extrapolates data-, tensor-, and pipeline-parallel execution over
configurable network topologies, combining a linear-regression operator
performance model with a flow-based network model on an event-driven
engine.

Quickstart::

    import repro

    gpu = repro.get_gpu("A100")
    model = repro.get_model("resnet50")
    trace = repro.Tracer(gpu).trace(model, batch_size=128)
    config = repro.SimulationConfig(parallelism="ddp", num_gpus=4,
                                    topology="ring", link_bandwidth=234e9)
    result = repro.TrioSim(trace, config).run()
    print(result.summary())
"""

from repro.analysis import (
    AnalysisError,
    Finding,
    Report,
    SanitizerSuite,
    lint_config,
    lint_plan,
    lint_spec,
    lint_taskgraph,
    lint_trace,
)
from repro.core.config import SimulationConfig
from repro.core.plan import ExtrapolationPlan, PlanCache
from repro.core.results import SimulationResult, Timeline, TimelineRecord
from repro.core.simulator import TrioSim
from repro.core.report import export_html_report
from repro.core.timeline import export_chrome_trace, timeline_summary
from repro.engine.engine import Engine
from repro.gpus.specs import (
    Platform,
    custom_platform,
    get_gpu,
    get_interconnect,
    platform_p1,
    platform_p2,
    platform_p3,
)
from repro.network.flow import FlowNetwork
from repro.network.photonic import PhotonicNetwork
from repro.network.routing import (
    RoutingStrategy,
    get_routing_strategy,
    register_routing_strategy,
    routing_names,
)
from repro.network.topology import (
    TOPOLOGIES,
    TopologySpec,
    register_topology,
    topology_names,
)
from repro.oracle.oracle import HardwareOracle
from repro.hop.protocol import HopConfig, HopSimulation
from repro.memory.estimator import check_fits, estimate_memory
from repro.perfmodel.li_model import LiModel
from repro.perfmodel.piecewise import PiecewiseThroughputModel
from repro.perfmodel.scaling import CrossGPUScaler
from repro.service.cache import ResultCache
from repro.service.runner import SweepError, SweepOutcome, SweepRunner
from repro.service.spec import SweepSpec
from repro.trace.trace import Trace, TraceFormatError
from repro.trace.tracer import Tracer
from repro.workloads.registry import CNN_NAMES, MODEL_NAMES, TRANSFORMER_NAMES, get_model

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CNN_NAMES",
    "CrossGPUScaler",
    "Engine",
    "ExtrapolationPlan",
    "Finding",
    "FlowNetwork",
    "HardwareOracle",
    "HopConfig",
    "HopSimulation",
    "LiModel",
    "MODEL_NAMES",
    "PiecewiseThroughputModel",
    "PhotonicNetwork",
    "PlanCache",
    "Platform",
    "Report",
    "ResultCache",
    "RoutingStrategy",
    "SanitizerSuite",
    "SimulationConfig",
    "SimulationResult",
    "SweepError",
    "SweepOutcome",
    "SweepRunner",
    "SweepSpec",
    "TOPOLOGIES",
    "TRANSFORMER_NAMES",
    "TopologySpec",
    "Timeline",
    "TimelineRecord",
    "Trace",
    "TraceFormatError",
    "Tracer",
    "TrioSim",
    "check_fits",
    "custom_platform",
    "estimate_memory",
    "export_chrome_trace",
    "export_html_report",
    "get_gpu",
    "get_interconnect",
    "get_model",
    "get_routing_strategy",
    "lint_config",
    "lint_plan",
    "lint_spec",
    "lint_taskgraph",
    "lint_trace",
    "platform_p1",
    "platform_p2",
    "platform_p3",
    "register_routing_strategy",
    "register_topology",
    "routing_names",
    "timeline_summary",
    "topology_names",
]
