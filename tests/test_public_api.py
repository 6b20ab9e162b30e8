"""Public API stability: the names downstream users import."""

import importlib

import pytest


PUBLIC_API = {
    "repro": ["__version__", "quick_sinan"],
    "repro.sim": [
        "TierSpec", "TierKind", "AppGraph", "RequestType", "IntervalStats",
        "TelemetryLog", "QueueingEngine", "ClusterSimulator",
        "LOCAL_PLATFORM", "GCE_PLATFORM", "CapacityFault",
    ],
    "repro.apps": [
        "social_network", "hotel_reservation", "media_service",
        "SOCIAL_QOS_MS", "HOTEL_QOS_MS", "MEDIA_QOS_MS", "RedisLogSync",
        "encrypted_posts_variant", "scaled_replicas_variant",
    ],
    "repro.workload": [
        "Workload", "RequestMix", "ConstantLoad", "StepLoad", "DiurnalLoad",
        "SOCIAL_MIXES", "social_mix", "hotel_mix", "media_mix",
    ],
    "repro.tenancy": [
        "TenantSpec", "Tenant", "build_tenant", "CreditConfig",
        "CreditLedger", "AllocationRequest", "TenantGrant", "ArbiterDecision",
        "CreditArbiter", "StaticPartitionArbiter", "MultiTenantSimulator",
    ],
    "repro.ml": [
        "SinanDataset", "LatencyScaler", "MSELoss", "ScaledMSELoss",
        "LatencyCNN", "LatencyMLP", "LatencyLSTM", "MultiTaskNN",
        "BoostedTrees", "rmse",
    ],
    "repro.core": [
        "QoSTarget", "WindowEncoder", "build_dataset", "ActionSpace",
        "HybridPredictor", "OnlineScheduler", "SinanManager",
        "BanditExplorer", "DataCollector", "fine_tune_predictor",
        "LimeExplainer", "Manager", "StaticManager",
    ],
    "repro.baselines": ["AutoScale", "PowerChief"],
    "repro.harness": [
        "run_episode", "sweep_loads", "EpisodeResult",
        "build_sinan_pipeline", "get_trained_predictor", "format_table",
        "run_episodes", "resolve_jobs", "EpisodeTask", "RunSummary",
        "run_multitenant_episode", "sweep_multitenant",
        "default_tenant_specs", "format_multitenant_report",
        "MultiTenantResult", "TenantResult",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_API[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_all_names_resolve(module_name):
    """Everything listed in __all__ actually exists."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_public_items_documented():
    """Every public class/function in the core packages has a docstring."""
    import inspect

    for module_name in PUBLIC_API:
        module = importlib.import_module(module_name)
        for name in PUBLIC_API[module_name]:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{module_name}.{name} undocumented"
