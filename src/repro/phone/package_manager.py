"""``PackageManager``: installed apps and UID -> package-name lookup.

MopEye resolves each connection's UID to an app name with
``PackageManager`` APIs (section 2.2); the lookup has a modelled cost
and results are cacheable by the caller.
"""

from __future__ import annotations

from typing import Dict, Optional


class PackageManager:
    def __init__(self, device):
        self.device = device
        self._by_uid: Dict[int, str] = {}
        self._by_package: Dict[str, int] = {}
        self.lookups = 0

    def install(self, package: str) -> int:
        """Install a package; returns its (new or existing) UID."""
        if package in self._by_package:
            return self._by_package[package]
        uid = self.device.allocate_uid()
        self._by_uid[uid] = package
        self._by_package[package] = uid
        return uid

    def name_for_uid(self, uid: int) -> Optional[str]:
        """``getPackagesForUid``-style lookup (cost charged by caller
        via ``device.costs.uid_lookup``)."""
        self.lookups += 1
        return self._by_uid.get(uid)

    def uid_for_name(self, package: str) -> Optional[int]:
        return self._by_package.get(package)

    def __len__(self) -> int:
        return len(self._by_package)
