"""Guard the public API surface: everything documented importable, every
``__all__`` honest."""

import importlib

import pytest

PACKAGES = ["repro", "repro.core", "repro.hw", "repro.vm", "repro.kernel",
            "repro.workloads", "repro.analysis", "repro.conformance",
            "repro.farm", "repro.trace"]


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_quickstart_imports(self):
        from repro import (CONFIG_GLOBAL, CONFIG_LADDER, Kernel,  # noqa
                           MachineConfig, NEW_SYSTEM, OLD_SYSTEM,
                           StaleDataError, small_machine)

    def test_readme_snippet_runs(self):
        # The README's quickstart, verbatim in spirit.
        from repro import Kernel, NEW_SYSTEM
        from repro.kernel.process import UserProcess
        kernel = Kernel(policy=NEW_SYSTEM)
        kernel.fs.create("/f", size_pages=2, on_disk=True)
        proc = UserProcess(kernel, "demo")
        fd = proc.open("/f")
        data = proc.read_file_page(fd, 0)
        proc.close(fd)
        proc.exit()
        assert data.any()
        assert kernel.elapsed_seconds > 0
        assert "page_flushes" in kernel.machine.counters.snapshot()

    def test_package_quickstart_runs_verbatim(self, capsys):
        # The Quickstart block of the package docstring, as printed.
        import textwrap

        import repro
        snippet = textwrap.dedent(repro.__doc__.split("Quickstart::\n")[1])
        exec(compile(snippet, "repro-quickstart", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["A", "F"]

    def test_version(self):
        import repro
        assert repro.__version__

    def test_policy_registry_is_complete(self):
        from repro.policy import get_policy
        for name in list("ABCDEF") + ["G", "CMU", "Utah", "Tut", "Apollo",
                                      "Sun", "rlt", "vespa"]:
            assert get_policy(name).name.lower() == name.lower()
