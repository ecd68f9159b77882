"""scripts/docs_lint.py's member check: a doc may not name a method,
property or knob that its class under src/repro no longer has."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "docs_lint.py"


def _load_lint():
    spec = importlib.util.spec_from_file_location("docs_lint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dead_class_attribute_is_flagged_and_live_ones_pass():
    lint = _load_lint()
    text = ("`ValidationObserver.post_put` ships blindly; "
            "`ValidationObserver.post_mutate`, `ValidationObserver.pre_flush`, "
            "`ServerConfig.auq_high_watermark`, `IndexTask.visible_at`, "
            "`Client.put()` and `System.currentTimeMillis()` all resolve.")
    assert lint.dead_class_attributes(text, lint.repro_classes()) == [
        "ValidationObserver.post_put"]
