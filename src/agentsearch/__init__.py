"""Tree search over textual agent trajectories with pluggable backends."""

from .actions import ActionGrammar, ActionSample, ParseError, parse_action
from .backends import (
    BackendError,
    Game24PolicyOracle,
    Game24ValueOracle,
    HttpChatBackend,
    PolicyBackend,
    ScriptedBackend,
    static_backend,
)
from .envs import TaskSpec, load_task, make_env, task_input
from .prompts import PromptBundle, assemble_prompt
from .reflection import ReflectionStore
from .search import (
    ENGINE_VERSION,
    VARIANTS,
    BackendSet,
    SearchConfig,
    SearchResult,
    run_search,
)
from .seeding import stable_seed
from .templates import TemplateSet, load_template_set
from .trace import ReplayError, TraceWriter, read_trace, replay_trace, write_trace
from .tree import ChildSpec, Node, SearchTree, tree_to_jsonl, uct
from .valuation import ValueScore, evaluate_children

__version__ = ENGINE_VERSION

__all__ = [
    "ActionGrammar",
    "ActionSample",
    "BackendError",
    "BackendSet",
    "ChildSpec",
    "ENGINE_VERSION",
    "Game24PolicyOracle",
    "Game24ValueOracle",
    "HttpChatBackend",
    "Node",
    "ParseError",
    "PolicyBackend",
    "PromptBundle",
    "ReflectionStore",
    "ReplayError",
    "ScriptedBackend",
    "SearchConfig",
    "SearchResult",
    "SearchTree",
    "TaskSpec",
    "TemplateSet",
    "TraceWriter",
    "VARIANTS",
    "ValueScore",
    "assemble_prompt",
    "evaluate_children",
    "load_task",
    "load_template_set",
    "make_env",
    "parse_action",
    "read_trace",
    "replay_trace",
    "run_search",
    "stable_seed",
    "static_backend",
    "task_input",
    "tree_to_jsonl",
    "uct",
    "write_trace",
    "__version__",
]
