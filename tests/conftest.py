from __future__ import annotations

import json

import pytest

from causetrace.benchmark import data_dir
from causetrace.oracles import OracleConfig
from causetrace.runner import AdsConfig
from causetrace.scenario import scenario_from_dict


def straight_road_doc(t_max_ms: int = 5000, dest_x: float = 120.0, objects=None,
                      lanes=2, seed: int = 7, signals=None) -> dict:
    lane_list = [{"id": "lane0", "centerline": [[0.0, 0.0], [200.0, 0.0]],
                  "width": 3.5, "speed_limit": 11.0}]
    if lanes > 1:
        lane_list.append({"id": "lane1", "centerline": [[0.0, 3.5], [200.0, 3.5]],
                          "width": 3.5, "speed_limit": 11.0})
    return {
        "map": {"lanes": lane_list, "successors": {}},
        "ego": {"init_pose": [5.0, 0.0, 0.0], "dest": [dest_x, 0.0],
                "size": [4.6, 1.9, 1.5]},
        "objects": objects or [],
        "signals": signals or [],
        "t_max_ms": t_max_ms,
        "seed": seed,
    }


def static_object(obj_id="blk", kind="StaticObstacle", size=(0.4, 0.4, 0.7),
                  p=(70.0, 0.0)) -> dict:
    return {"id": obj_id, "kind": kind, "size": list(size),
            "waypoints": [{"t_ms": 0, "p": list(p), "v": [0, 0], "a": [0, 0]}]}


def raw_instances() -> dict[str, dict]:
    """Instance id -> the instance object as `data/benchmark.json` holds it, read
    afresh on each call, so a test may edit what it gets."""
    doc = json.loads((data_dir() / "benchmark.json").read_text(encoding="utf-8"))
    return {raw["id"]: raw for raw in doc["instances"]}


def object_by_id(sc, obj_id: str):
    """The scenario's traffic object with that id."""
    (obj,) = [o for o in sc.objects if o.id == obj_id]
    return obj


@pytest.fixture
def straight_scenario():
    return scenario_from_dict(straight_road_doc())


@pytest.fixture
def ads_config():
    return AdsConfig()


@pytest.fixture
def oracle_config():
    return OracleConfig()
